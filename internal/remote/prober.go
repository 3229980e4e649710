package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"braid/internal/uarch"
	"braid/internal/workload"
)

// canaryHeader marks a probe simulation: the server admits it without
// shedding (it waits for a slot instead of 429ing), so an overloaded-but-
// healthy backend is not misdiagnosed as broken.
const canaryHeader = "X-Braid-Canary"

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

// healthzBody is the overload signal braidd exposes on a healthy /healthz.
type healthzBody struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	Overloaded bool   `json:"overloaded"`
}

// StartProber launches the background health prober: every interval it
// checks each backend's /healthz and, when the backend reports itself
// neither draining nor overloaded, runs the canary simulation with a
// known-answer check. A failed probe (or a canary answering wrong bytes)
// ejects the backend, so the request path skips it without spending an
// attempt, and grants it no trial while probes keep failing. A passing
// probe reinstates nothing: only an answered attempt puts a backend back
// in rotation (see health). The verdicts surface in Snapshot().Healthy
// and Ejections and in the braidload/braidbench pool summaries.
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
	hctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hb, err := p.checkHealthz(hctx, i)
	if err != nil && ctx.Err() == nil {
		p.probeFailures.Add(1)
	}
	if err == nil && !hb.Overloaded {
		// An overloaded backend is alive but saturated: a canary would only
		// deepen its queue, and ejecting it would amplify the spike onto the
		// rest of the fleet.
		err = p.canary(hctx, i)
	}
	if err != nil && ctx.Err() == nil { // a prober shutting down is no verdict
		p.health[i].eject(time.Now())
	}
}

func (p *Pool) checkHealthz(ctx context.Context, i int) (healthzBody, error) {
	var hb healthzBody
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.backends[i]+"/healthz", nil)
	if err != nil {
		return hb, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return hb, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return hb, err
	}
	if resp.StatusCode != http.StatusOK {
		return hb, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	json.Unmarshal(data, &hb) // best effort: an old server's body lacks the fields
	return hb, nil
}

// canary runs the known-answer simulation directly against backend i
// (bypassing routing) and demands bit-exact Stats. The request is tiny and
// deterministic, so repeats are served from the backend's result cache.
func (p *Pool) canary(ctx context.Context, i int) error {
	body, want, err := canaryRequest()
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.backends[i]+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(canaryHeader, "1")
	resp, err := p.client.Do(req)
	if err != nil {
		p.probeFailures.Add(1)
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		p.probeFailures.Add(1)
		return err
	}
	if resp.StatusCode != http.StatusOK {
		p.probeFailures.Add(1)
		return fmt.Errorf("canary status %d", resp.StatusCode)
	}
	var sr struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		p.probeFailures.Add(1)
		return fmt.Errorf("canary response: %w", err)
	}
	if !bytes.Equal(sr.Stats, want) {
		p.canaryMismatches.Add(1)
		return fmt.Errorf("canary stats mismatch: backend %s diverges from local simulation", p.backends[i])
	}
	return nil
}
