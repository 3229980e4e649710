package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"braid/internal/uarch"
	"braid/internal/workload"
)

// canaryMaterial is the known-answer probe, built once per process: the
// tiny "dot" kernel on a 2-wide out-of-order core, with the expected Stats
// bytes computed by the local simulator — the same determinism reference
// -remote-verify uses. Any backend that answers the canary with different
// bytes is lying about its simulations and gets ejected.
var (
	canaryOnce sync.Once
	canaryBody []byte // request body for POST /v1/simulate
	canaryWant []byte // expected Stats JSON, bit-exact
	canaryErr  error
)

func canaryRequest() ([]byte, []byte, error) {
	canaryOnce.Do(func() {
		prog, ok := workload.KernelByName("dot")
		if !ok {
			canaryErr = errors.New("remote: canary kernel missing")
			return
		}
		cfg := uarch.OutOfOrderConfig(2)
		// The canary carries its image, not the digest: a backend that lost
		// or never held the image must still answer the known-answer check
		// in one request.
		w, err := encodeRequest(prog, cfg, 10_000, uarch.Sampling{})
		if err != nil {
			canaryErr = err
			return
		}
		body, err := w.imageBody()
		if err != nil {
			canaryErr = err
			return
		}
		st, err := uarch.SimulateChecked(context.Background(), prog, cfg)
		if err != nil {
			canaryErr = fmt.Errorf("remote: canary reference run: %w", err)
			return
		}
		want, err := json.Marshal(st)
		if err != nil {
			canaryErr = err
			return
		}
		canaryBody, canaryWant = body, want
	})
	return canaryBody, canaryWant, canaryErr
}

// StartProber launches the background health prober: every interval it
// sends each backend the canary, a known-answer simulation, through post,
// the path every point takes. A canary that fails — a transport error, a
// non-200 other than 429, a bad digest, a malformed body or wrong Stats —
// ejects the backend, so the request path skips it without spending an
// attempt, and grants it no trial while canaries keep failing. A 429 is no
// verdict: the backend is busy, not broken. A passing canary reinstates
// nothing: only an answered attempt puts a backend back in rotation (see
// health). The verdicts surface in Snapshot().Healthy and Ejections and in
// the braidload/braidbench pool summaries.
//
// The prober stops when ctx is done or the returned stop function is called
// (stop waits for the probe goroutine to exit).
func (p *Pool) StartProber(ctx context.Context, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	pctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			p.probeAll(pctx, interval)
			select {
			case <-t.C:
			case <-pctx.Done():
				return
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// probeAll probes every backend concurrently, so one dead backend's timeout
// cannot starve the others' cadence.
func (p *Pool) probeAll(ctx context.Context, interval time.Duration) {
	timeout := 2 * time.Second
	if timeout < interval {
		timeout = interval
	}
	var wg sync.WaitGroup
	for i := range p.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.probeBackend(ctx, i, timeout)
		}(i)
	}
	wg.Wait()
}

func (p *Pool) probeBackend(ctx context.Context, i int, timeout time.Duration) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	err := p.canary(cctx, i)
	var re *retryableError
	if err == nil || ctx.Err() != nil || errors.As(err, &re) && re.overload {
		return // passed, the prober is shutting down, or the backend is shedding
	}
	p.probeFailures.Add(1)
	p.health[i].eject(time.Now())
}

// canary runs the known-answer simulation directly against backend i
// (bypassing routing) and demands bit-exact Stats. The request is tiny and
// deterministic, so repeats are served from the backend's result cache.
func (p *Pool) canary(ctx context.Context, i int) error {
	body, want, err := canaryRequest()
	if err != nil {
		return err
	}
	res, _, err := p.post(ctx, p.backends[i], body)
	if err != nil {
		return err
	}
	if !bytes.Equal(res.RawStats, want) {
		p.canaryMismatches.Add(1)
		return fmt.Errorf("canary stats mismatch: backend %s diverges from local simulation", p.backends[i])
	}
	return nil
}
