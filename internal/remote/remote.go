// Package remote is the distributed-execution client for braidd: it fans a
// design-space sweep's simulation points out across one or more braidd
// backends. The pool routes every point of a program to one backend, chosen
// by rendezvous hashing on the program image's SHA-256, so that backend
// builds the program once and a repeated point lands on the result cache
// that already holds it; a point names its program image by SHA-256 and
// sends the image only to a backend that answers it does not hold it;
// transient failures — 429 overload, 5xx, connection errors — retry with
// exponential backoff and jitter (honoring Retry-After) and fail over to the
// program's next-ranked backend, so a backend killed mid-sweep costs latency,
// not the sweep; a backend that fails three attempts in a row, or the health
// prober's known-answer canary, is ejected from rotation until an attempt
// after a cooldown is answered; optional hedged requests duplicate a
// straggler onto the next backend after the pool's observed p95; and a
// verify mode cross-checks a deterministic sample of remote Stats
// bit-for-bit against local simulation.
//
// The pool implements experiments.Runner (SimulateSampled), so a Workloads suite
// pointed at it keeps its memoization, checkpoint/resume, and Failures()
// accounting unchanged: remote structured errors translate back into the
// local taxonomy (*uarch.SimFault, ErrCycleLimit, ErrTimeout, ErrCanceled).
package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"braid/internal/isa"
	"braid/internal/service"
	"braid/internal/uarch"
)

// Options configures a Pool. Zero fields take the documented defaults.
type Options struct {
	Backends    []string       // braidd base URLs (required)
	Timeout     time.Duration  // per-attempt HTTP timeout (default 2m)
	TimeoutMS   int64          // per-request simulation deadline sent to the server (0: server default)
	Hedge       bool           // duplicate stragglers onto the next backend
	VerifyEvery int            // locally re-simulate every point whose request hashes to 0 mod N (0: off)
	Client      *http.Client   // HTTP client (default: fresh client, per-attempt timeout via context)
	Fallback    FallbackPolicy // what to do when every attempt fails (default FallbackFail)
}

// FallbackPolicy selects what a Pool does when a point exhausts every
// attempt (or every backend is ejected): fail with a transient Unavailable, or
// degrade to in-process simulation.
type FallbackPolicy int

const (
	// FallbackFail surfaces Unavailable; the sweep aborts (the error is
	// transient, so memo caches refuse it and -resume retries it).
	FallbackFail FallbackPolicy = iota
	// FallbackLocal runs the point on the local simulator instead. Local
	// execution is the determinism reference the fleet is verified against,
	// so results — and therefore memoization, checkpoints, and stdout — are
	// bit-identical to a healthy fleet's; only throughput degrades.
	FallbackLocal
)

// ParseFallback parses the -fallback flag value.
func ParseFallback(s string) (FallbackPolicy, error) {
	switch s {
	case "", "fail":
		return FallbackFail, nil
	case "local":
		return FallbackLocal, nil
	}
	return FallbackFail, fmt.Errorf("remote: unknown fallback policy %q (want local or fail)", s)
}

// Pool routes simulation points to braidd backends.
type Pool struct {
	backends []string
	client   *http.Client
	opt      Options

	// Retry and ejection timing: fixed per pool, shortened by tests.
	maxAttempts int           // tries per point across backends: 2 per backend, at least 4
	baseBackoff time.Duration // first retry delay
	maxBackoff  time.Duration // retry delay ceiling
	hedgeFloor  time.Duration // lower bound on the hedge delay
	ejectAfter  int           // consecutive failed attempts that eject a backend (0: never)
	cooldown    time.Duration // ejection to the first trial attempt, and a trial's expiry

	requests   atomic.Uint64
	retries    atomic.Uint64
	failovers  atomic.Uint64
	hedges     atomic.Uint64
	hedgeWins  atomic.Uint64
	verified   atomic.Uint64
	perBackend []atomic.Uint64 // successful responses per backend

	failedAttempts    atomic.Uint64 // HTTP attempts that came back retryable
	shortCircuits     atomic.Uint64 // attempts skipped because a backend was ejected
	localFallbacks    atomic.Uint64 // points degraded to in-process simulation
	imageResends      atomic.Uint64 // unknown_program answers followed by the image
	integrityFailures atomic.Uint64 // 200s whose body SHA-256 was missing or did not match
	probeFailures     atomic.Uint64 // health-prober checks that failed
	verifyFailures    atomic.Uint64 // points whose verification failed
	canaryMismatches  atomic.Uint64 // canary simulations whose stats diverged

	health []health // per backend, indexed like backends

	images imageMemo // the images of the programs sent most recently

	rngMu sync.Mutex
	rng   *rand.Rand

	latMu  sync.Mutex
	latMS  [128]float64 // ring buffer of recent request latencies
	latN   int          // valid entries
	latPos int
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Requests   uint64            `json:"requests"`
	Retries    uint64            `json:"retries"`
	Failovers  uint64            `json:"failovers"`
	Hedges     uint64            `json:"hedges"`
	HedgeWins  uint64            `json:"hedge_wins"`
	Verified   uint64            `json:"verified"`
	PerBackend map[string]uint64 `json:"per_backend"`

	FailedAttempts    uint64          `json:"failed_attempts"`
	ShortCircuits     uint64          `json:"short_circuits"`
	Ejections         uint64          `json:"ejections"` // times a backend left rotation
	LocalFallbacks    uint64          `json:"local_fallbacks"`
	ImageResends      uint64          `json:"image_resends"`
	IntegrityFailures uint64          `json:"integrity_failures"`
	ProbeFailures     uint64          `json:"probe_failures"`
	VerifyFailures    uint64          `json:"verify_failures"`
	CanaryMismatches  uint64          `json:"canary_mismatches"`
	Healthy           map[string]bool `json:"healthy"` // backend -> in rotation (not ejected)
}

// Result is one successfully simulated point with its provenance.
type Result struct {
	Stats    *uarch.Stats
	Estimate *uarch.SampleEstimate // sampled runs only; nil for exact
	RawStats []byte                // the exact Stats JSON bytes the backend served
	Source   string                // run, cache, or coalesced (server-side provenance)
	Backend  string                // base URL that answered
	Attempts int                   // HTTP attempts spent (1 = first try)
	Hedged   bool                  // answered by a hedge request
	Verified bool                  // cross-checked against local simulation
}

// NewPool validates o and builds a routing pool. Two entries that normalize
// to one URL are an error: they would share a server but not a health record.
func NewPool(o Options) (*Pool, error) {
	if len(o.Backends) == 0 {
		return nil, errors.New("remote: no backends")
	}
	backends := make([]string, 0, len(o.Backends))
	for _, b := range o.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		if slices.Contains(backends, b) {
			return nil, fmt.Errorf("remote: backend %s listed twice", b)
		}
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return nil, errors.New("remote: no backends")
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Pool{
		backends:    backends,
		client:      client,
		opt:         o,
		maxAttempts: max(4, 2*len(backends)),
		baseBackoff: 50 * time.Millisecond,
		maxBackoff:  2 * time.Second,
		hedgeFloor:  25 * time.Millisecond,
		ejectAfter:  3,
		cooldown:    time.Second,
		perBackend:  make([]atomic.Uint64, len(backends)),
		health:      make([]health, len(backends)),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Backends returns the normalized backend base URLs.
func (p *Pool) Backends() []string { return append([]string(nil), p.backends...) }

// Snapshot returns the pool's counters.
func (p *Pool) Snapshot() Stats {
	s := Stats{
		Requests:   p.requests.Load(),
		Retries:    p.retries.Load(),
		Failovers:  p.failovers.Load(),
		Hedges:     p.hedges.Load(),
		HedgeWins:  p.hedgeWins.Load(),
		Verified:   p.verified.Load(),
		PerBackend: make(map[string]uint64, len(p.backends)),

		FailedAttempts:    p.failedAttempts.Load(),
		ShortCircuits:     p.shortCircuits.Load(),
		LocalFallbacks:    p.localFallbacks.Load(),
		ImageResends:      p.imageResends.Load(),
		IntegrityFailures: p.integrityFailures.Load(),
		ProbeFailures:     p.probeFailures.Load(),
		VerifyFailures:    p.verifyFailures.Load(),
		CanaryMismatches:  p.canaryMismatches.Load(),
		Healthy:           make(map[string]bool, len(p.backends)),
	}
	for i, b := range p.backends {
		s.PerBackend[b] = p.perBackend[i].Load()
		ejected, ejections := p.health[i].snapshot()
		s.Healthy[b] = !ejected
		s.Ejections += ejections
	}
	return s
}

func (p *Pool) String() string {
	s := p.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests, %d retries, %d failovers", s.Requests, s.Retries, s.Failovers)
	fmt.Fprintf(&b, ", %d failed attempts, %d ejections, %d short-circuits",
		s.FailedAttempts, s.Ejections, s.ShortCircuits)
	if s.LocalFallbacks > 0 {
		fmt.Fprintf(&b, ", %d local fallbacks", s.LocalFallbacks)
	}
	if s.ImageResends > 0 {
		fmt.Fprintf(&b, ", %d image resends", s.ImageResends)
	}
	if s.IntegrityFailures > 0 {
		fmt.Fprintf(&b, ", %d integrity failures", s.IntegrityFailures)
	}
	if p.opt.Hedge {
		fmt.Fprintf(&b, ", %d hedges (%d won)", s.Hedges, s.HedgeWins)
	}
	if p.opt.VerifyEvery > 0 {
		fmt.Fprintf(&b, ", %d verified", s.Verified)
	}
	names := make([]string, 0, len(s.PerBackend))
	for n := range s.PerBackend {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "; %s=%d", n, s.PerBackend[n])
	}
	return b.String()
}

// Ping requires one live backend on /healthz (5 s each), so a sweep pointed
// at a dead fleet fails before its first point. Unreachable backends are
// tolerated (points fail over around them) and reported. A Ping cut short
// by ctx fails with uarch.ErrCanceled (ErrTimeout past a deadline).
func (p *Pool) Ping(ctx context.Context) (down []string, err error) {
	up := 0
	for _, b := range p.backends {
		if p.live(ctx, b) {
			up++
		} else {
			down = append(down, b)
		}
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("remote: ping: %w", ctxSentinel(ctx))
	}
	if up == 0 {
		return down, fmt.Errorf("remote: no live backend among %s", strings.Join(p.backends, ","))
	}
	return down, nil
}

// live reports whether backend answers /healthz with a 200 within 5 s.
func (p *Pool) live(ctx context.Context, backend string) bool {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Simulate runs one point remotely with exact timing: the returned Stats and
// error taxonomy match uarch.SimulateChecked on a live fleet.
func (p *Pool) Simulate(ctx context.Context, prog *isa.Program, cfg uarch.Config) (*uarch.Stats, error) {
	r, err := p.SimulateFull(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	return r.Stats, nil
}

// SimulateSampled runs one point remotely, satisfying experiments.Runner: the
// returned Stats, estimate and error taxonomy match uarch.SimulateSampled on
// a live fleet, so memoization, Failures() accounting, and checkpointing
// behave identically to local execution. A zero sp runs exact with a nil
// estimate; otherwise verification compares the estimate within tolerance
// rather than byte-for-byte. Sampled and exact points of one program route to
// the same backend, whose result cache keys them apart.
func (p *Pool) SimulateSampled(ctx context.Context, prog *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error) {
	r, err := p.run(ctx, prog, cfg, sp)
	if err != nil {
		return nil, nil, err
	}
	return r.Stats, r.Estimate, nil
}

// SimulateFull is Simulate with provenance: which backend answered, how many
// attempts it took, and whether the result was hedged or verified.
func (p *Pool) SimulateFull(ctx context.Context, prog *isa.Program, cfg uarch.Config) (*Result, error) {
	return p.run(ctx, prog, cfg, uarch.Sampling{})
}

func (p *Pool) run(ctx context.Context, prog *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*Result, error) {
	img, err := p.images.get(prog)
	if err != nil {
		return nil, err
	}
	w, err := img.request(cfg, p.opt.TimeoutMS, sp)
	if err != nil {
		return nil, err
	}
	p.requests.Add(1)
	cands := rank(p.backends, w.req.ImageSHA256)

	var res *Result
	if p.opt.Hedge && p.maxAttempts > 1 {
		res, err = p.runHedged(ctx, w, cands)
	} else {
		res, err = p.runAttempts(ctx, w, cands, p.maxAttempts)
	}
	if err != nil {
		var un *Unavailable
		if p.opt.Fallback == FallbackLocal && errors.As(err, &un) {
			// The fleet is gone or drowning; degrade to in-process
			// simulation. Local execution is the determinism reference, so
			// the result — and everything downstream: memo entries,
			// checkpoints, stdout — is bit-identical to a healthy fleet's.
			return p.runLocal(ctx, prog, cfg, sp)
		}
		return nil, err
	}
	if p.opt.VerifyEvery > 0 && sum64(w.body)%uint64(p.opt.VerifyEvery) == 0 {
		if err := p.verifyLocal(ctx, prog, cfg, sp, res); err != nil {
			if ctx.Err() != nil { // a local run cut short is no verdict
				return nil, fmt.Errorf("remote: %w", ctxSentinel(ctx))
			}
			p.verifyFailures.Add(1)
			return nil, err
		}
		res.Verified = true
		p.verified.Add(1)
	}
	return res, nil
}

// rank orders the backends for the program whose image has SHA-256 digest
// by rendezvous hashing (Thaler & Ravishankar 1998): each backend scores
// SHA-256(URL ‖ digest), highest first. The first owns the program, so every
// point of it, exact or sampled, reaches the one backend that holds its image,
// its pre-executed trace and its results; the rest are the failover and hedge
// order. A backend that joins or leaves changes no other backend's score, so
// only the programs it gains or loses move.
func rank(backends []string, digest string) []int {
	scores := make([]uint64, len(backends))
	order := make([]int, len(backends))
	for i, b := range backends {
		scores[i] = sum64([]byte(b + digest))
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	return order
}

// sum64 is the first 64 bits of data's SHA-256.
func sum64(data []byte) uint64 {
	sum := sha256.Sum256(data)
	return binary.BigEndian.Uint64(sum[:8])
}

// wireRequest is one point as a backend receives it. body names the program
// image by its SHA-256, which is also the routing key; imageBody carries the
// image itself and is encoded only when a backend answers unknown_program.
type wireRequest struct {
	req   service.SimRequest // the hash-only request
	body  []byte             // req, encoded
	image []byte             // the .brd image req's digest names
}

// encodeRequest serializes the program image's digest and the full
// configuration. Naming the image (rather than a workload) guarantees the
// backend simulates the same bytes the caller would locally — iteration
// calibration, braid compilation, and any local program surgery are all
// already baked in — and gives every point of one program the same routing
// key everywhere. A Pool takes the image from its memo instead.
func encodeRequest(prog *isa.Program, cfg uarch.Config, timeoutMS int64, sp uarch.Sampling) (*wireRequest, error) {
	img, err := newProgramImage(prog)
	if err != nil {
		return nil, err
	}
	return img.request(cfg, timeoutMS, sp)
}

// programImage is a program's .brd image and the hex SHA-256 that names it.
type programImage struct {
	bytes  []byte
	digest string
}

func newProgramImage(prog *isa.Program) (*programImage, error) {
	var img bytes.Buffer
	if err := isa.WriteImage(&img, prog); err != nil {
		return nil, fmt.Errorf("remote: encoding %q: %w", prog.Name, err)
	}
	sum := sha256.Sum256(img.Bytes())
	return &programImage{bytes: img.Bytes(), digest: hex.EncodeToString(sum[:])}, nil
}

// request is one point of the image's program, as encodeRequest describes.
func (img *programImage) request(cfg uarch.Config, timeoutMS int64, sp uarch.Sampling) (*wireRequest, error) {
	cfg.Inject = nil // process-local and json-excluded; never meaningful remotely
	noBraid := false // the image is final; the backend must not recompile it
	req := service.SimRequest{
		ImageSHA256: img.digest,
		Config:      &cfg,
		Braid:       &noBraid,
		TimeoutMS:   timeoutMS,
	}
	if sp.Enabled() {
		req.Sampling = &sp
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("remote: encoding request: %w", err)
	}
	return &wireRequest{req: req, body: body, image: img.bytes}, nil
}

// maxMemoImages bounds a Pool's image memo: a suite sweep sends 52
// programs, and a long braidtune search sends the same few again and again.
const maxMemoImages = 256

// imageMemo keeps the images of the programs a Pool sent most recently,
// keyed by program, so a sweep writes and hashes each program's image once
// rather than once per point (fig13 sends 312 points of 52 programs). Like
// uarch's replay cache it assumes a program does not change once simulated.
// It holds at most maxMemoImages, dropping the oldest first: go 1.22 has no
// weak pointers to tie an entry to its program's life.
type imageMemo struct {
	mu      sync.Mutex
	entries map[*isa.Program]*memoEntry
	order   []*isa.Program // oldest first
	encodes atomic.Uint64  // images written and hashed
}

type memoEntry struct {
	once sync.Once
	img  *programImage
	err  error
}

// get returns prog's image, writing it on first use; concurrent first uses
// write it once.
func (m *imageMemo) get(prog *isa.Program) (*programImage, error) {
	m.mu.Lock()
	e := m.entries[prog]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[*isa.Program]*memoEntry)
		}
		if len(m.order) == maxMemoImages {
			delete(m.entries, m.order[0])
			m.order = m.order[1:]
		}
		e = &memoEntry{}
		m.entries[prog] = e
		m.order = append(m.order, prog)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.img, e.err = newProgramImage(prog)
		m.encodes.Add(1)
	})
	return e.img, e.err
}

// imageBody is the request with the image itself in place of its digest.
func (w *wireRequest) imageBody() ([]byte, error) {
	req := w.req
	req.ImageSHA256, req.Image = "", base64.StdEncoding.EncodeToString(w.image)
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("remote: encoding request: %w", err)
	}
	return body, nil
}

// runHedged races the normal attempt chain against a second chain started on
// the next-ranked backend once the first has been in flight longer than the
// pool's observed p95 latency. That backend does not own the program, so a
// hedge usually costs an unknown_program round trip, an image resend, a
// program build and a second simulation there (DESIGN.md §9 measures it).
func (p *Pool) runHedged(ctx context.Context, w *wireRequest, cands []int) (*Result, error) {
	// Each side gets its own cancelable context so the losing request is
	// torn down the moment the other side wins — not when this function
	// happens to return. A hedged in-flight request holds a real queue
	// slot (and, once admitted, a worker) on its backend; leaving it to
	// run to completion after the race is decided inflates workers_busy
	// and queue depth across the fleet for the full simulation time.
	type out struct {
		res *Result
		err error
		idx int
	}
	attemptCtx := [2]context.Context{}
	attemptCancel := [2]context.CancelFunc{}
	attemptCtx[0], attemptCancel[0] = context.WithCancel(ctx)
	defer attemptCancel[0]()
	ch := make(chan out, 2)
	go func() {
		r, err := p.runAttempts(attemptCtx[0], w, cands, p.maxAttempts-1)
		ch <- out{r, err, 0}
	}()
	timer := time.NewTimer(p.hedgeDelay())
	defer timer.Stop()
	inflight, hedged := 1, false
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				if o.idx == 1 {
					o.res.Hedged = true
					p.hedgeWins.Add(1)
				}
				// Cancel the loser explicitly before returning the win.
				if c := attemptCancel[1-o.idx]; c != nil {
					c()
				}
				return o.res, nil
			}
			if firstErr == nil || o.idx == 0 {
				firstErr = o.err
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				p.hedges.Add(1)
				rotated := append(append([]int(nil), cands[1:]...), cands[0])
				inflight++
				attemptCtx[1], attemptCancel[1] = context.WithCancel(ctx)
				defer attemptCancel[1]()
				go func() {
					r, err := p.runAttempts(attemptCtx[1], w, rotated, 1)
					ch <- out{r, err, 1}
				}()
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("remote: %w", ctxSentinel(ctx))
		}
	}
}

// hedgeDelay is the pool's p95 observed latency, floored by hedgeFloor;
// before enough samples accumulate it is a conservative fixed delay.
func (p *Pool) hedgeDelay() time.Duration {
	p.latMu.Lock()
	n := p.latN
	var sample []float64
	if n >= 16 {
		sample = append(sample, p.latMS[:n]...)
	}
	p.latMu.Unlock()
	if sample == nil {
		return max(250*time.Millisecond, p.hedgeFloor)
	}
	sort.Float64s(sample)
	p95 := sample[(len(sample)*95)/100]
	return max(time.Duration(p95*float64(time.Millisecond)), p.hedgeFloor)
}

func (p *Pool) observeLatency(d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	p.latMu.Lock()
	p.latMS[p.latPos] = ms
	p.latPos = (p.latPos + 1) % len(p.latMS)
	if p.latN < len(p.latMS) {
		p.latN++
	}
	p.latMu.Unlock()
}

// errAllEjected is the Unavailable cause when every candidate backend was
// ejected and none was due a trial attempt, so no byte was sent.
var errAllEjected = errors.New("every backend is ejected")

// health is one backend's place in rotation. A backend is ejected (taken
// out of rotation) after ejectAfter consecutive failed attempts, or when
// the prober fails it. Routing then skips it until the pool's cooldown has
// passed, and grants it one trial attempt per cooldown from then on, so a
// trial whose caller never reports (it was canceled mid-flight) expires
// after another cooldown. Only an answer to an attempt that started after
// the ejection puts it back in rotation; a failed attempt leaves it
// ejected.
type health struct {
	mu        sync.Mutex
	ejected   bool
	since     time.Time // the ejection, then the latest trial's start
	fails     int       // consecutive failed attempts while in rotation
	ejections uint64    // times the backend left rotation
}

// allow reports whether an attempt may go to the backend now, granting
// an ejected backend's trial once the cooldown since the ejection or the
// previous trial has passed.
func (h *health) allow(now time.Time, cooldown time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.ejected {
		return true
	}
	if now.Sub(h.since) < cooldown {
		return false
	}
	h.since = now
	return true
}

// answered records an answer to an attempt that started at start. It puts
// the backend back in rotation unless the attempt started before the
// ejection or the latest trial, so an answer older than the verdict
// overrules nothing.
func (h *health) answered(start time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ejected && start.Before(h.since) {
		return
	}
	h.ejected, h.fails = false, 0
}

// failed records a failed attempt, ejecting the backend after ejectAfter
// in a row. A failed trial, or an attempt that started before the
// ejection, changes nothing: the next trial waits its cooldown.
func (h *health) failed(now time.Time, ejectAfter int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ejected {
		return
	}
	h.fails++
	if ejectAfter > 0 && h.fails >= ejectAfter {
		h.ejectLocked(now)
	}
}

// eject takes the backend out of rotation. Ejecting it again restarts the
// cooldown, so it gets no trial while the prober keeps failing it.
func (h *health) eject(now time.Time) {
	h.mu.Lock()
	h.ejectLocked(now)
	h.mu.Unlock()
}

func (h *health) ejectLocked(now time.Time) {
	if !h.ejected {
		h.ejections++
	}
	h.ejected, h.since, h.fails = true, now, 0
}

func (h *health) snapshot() (ejected bool, ejections uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ejected, h.ejections
}

// pickBackend returns the first candidate, scanning rank order from the
// attempt's rotation, that allows an attempt. Skipped backends count as
// short-circuits: the attempts their ejection saved.
func (p *Pool) pickBackend(cands []int, attempt int, now time.Time) (int, bool) {
	n := len(cands)
	for off := 0; off < n; off++ {
		c := cands[(attempt+off)%n]
		if p.health[c].allow(now, p.cooldown) {
			return c, true
		}
		p.shortCircuits.Add(1)
	}
	return 0, false
}

// runAttempts walks the candidate backends, retrying retryable failures with
// exponential backoff + jitter and honoring Retry-After. Attempt k starts
// from cands[k % len(cands)] — the program's owner first, then failover in
// rank order, returning to the owner on later rounds in case it recovered —
// and skips past ejected backends, so an ejected backend costs nothing while
// keeping its programs (and therefore its cache affinity) for when it heals.
// If every backend is ejected the point fails fast as Unavailable rather
// than burning the attempt budget.
func (p *Pool) runAttempts(ctx context.Context, w *wireRequest, cands []int, maxAttempts int) (*Result, error) {
	var lastErr error
	prev := -1
	for attempt := 0; attempt < maxAttempts; attempt++ {
		start := time.Now()
		idx, ok := p.pickBackend(cands, attempt, start)
		if !ok {
			if lastErr == nil {
				lastErr = errAllEjected
			}
			return nil, &Unavailable{Key: w.req.ImageSHA256, Attempts: attempt, Last: lastErr}
		}
		if attempt > 0 {
			p.retries.Add(1)
			if idx != prev {
				p.failovers.Add(1)
			}
		}
		prev = idx
		res, retryAfter, err := p.call(ctx, p.backends[idx], w)
		if err == nil {
			res.Attempts = attempt + 1
			p.perBackend[idx].Add(1)
			p.health[idx].answered(start)
			return res, nil
		}
		var re *retryableError
		if !errors.As(err, &re) {
			if ctx.Err() == nil {
				// A terminal, authoritative answer (translated sim error,
				// bad request): the backend is alive and working.
				p.health[idx].answered(start)
			}
			return nil, err // terminal: translated sim error, cancellation, ...
		}
		p.failedAttempts.Add(1)
		if re.overload {
			// A 429 is an answer: the backend is alive, only shedding, and
			// ejecting it would amplify a load spike onto the rest.
			p.health[idx].answered(start)
		} else {
			p.health[idx].failed(time.Now(), p.ejectAfter)
		}
		lastErr = re.err
		if err := p.sleepBackoff(ctx, attempt, retryAfter); err != nil {
			return nil, err
		}
	}
	return nil, &Unavailable{Key: w.req.ImageSHA256, Attempts: maxAttempts, Last: lastErr}
}

// runLocal degrades one point to in-process simulation (FallbackLocal). The
// result carries the same RawStats bytes a backend would have served —
// json.Marshal of the local Stats is exactly what braidd embeds — so
// downstream byte-equality consumers cannot tell the difference.
func (p *Pool) runLocal(ctx context.Context, prog *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*Result, error) {
	p.localFallbacks.Add(1)
	st, est, err := uarch.SimulateSampled(ctx, prog, cfg, sp)
	if err != nil {
		return nil, err // already in the local taxonomy
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return &Result{Stats: st, Estimate: est, RawStats: raw, Source: "local"}, nil
}

// sleepBackoff waits out the exponential backoff (with ±50% jitter) or the
// server's Retry-After hint, whichever the server asked for, respecting ctx.
func (p *Pool) sleepBackoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := p.baseBackoff << uint(attempt)
	if d > p.maxBackoff || d <= 0 {
		d = p.maxBackoff
	}
	if retryAfter > 0 {
		d = min(retryAfter, p.maxBackoff) // a long hint should not stall failover
	}
	p.rngMu.Lock()
	jitter := 0.5 + p.rng.Float64() // 0.5x .. 1.5x
	p.rngMu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("remote: %w", ctxSentinel(ctx))
	}
}

// retryableError wraps a failure worth another attempt: overload, a 5xx, or
// a transport error. Everything else is terminal. overload marks a 429 —
// the backend answered, it is just shedding — which retries like any other
// transient failure but must not count toward the backend's ejection.
type retryableError struct {
	err      error
	overload bool
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// call performs one attempt against one backend: the hash-only request,
// then, if the backend answers unknown_program (it has never seen the image,
// evicted it or restarted), the request with the image. The exchange is one
// attempt: the unknown_program answer is not a failure, a retry or a latency
// sample, and a second one is a terminal error. The answer that ends the
// attempt is a hedge-latency sample.
func (p *Pool) call(ctx context.Context, backend string, w *wireRequest) (*Result, time.Duration, error) {
	t0 := time.Now()
	res, retryAfter, err := p.post(ctx, backend, w.body)
	if errors.Is(err, errUnknownProgram) {
		p.imageResends.Add(1)
		body, berr := w.imageBody()
		if berr != nil {
			return nil, 0, berr
		}
		t0 = time.Now()
		res, retryAfter, err = p.post(ctx, backend, body)
	}
	if err == nil {
		p.observeLatency(time.Since(t0))
	}
	return res, retryAfter, err
}

// post sends body to backend's /v1/simulate and checks and parses the answer.
func (p *Pool) post(ctx context.Context, backend string, body []byte) (*Result, time.Duration, error) {
	actx, cancel := context.WithTimeout(ctx, p.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, backend+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("remote: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("remote: %w", ctxSentinel(ctx))
		}
		// Connection refused/reset, per-attempt timeout: try elsewhere.
		return nil, 0, &retryableError{err: fmt.Errorf("%s: %w", backend, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("remote: %w", ctxSentinel(ctx))
		}
		return nil, 0, &retryableError{err: fmt.Errorf("%s: reading response: %w", backend, err)}
	}
	if resp.StatusCode == http.StatusOK {
		// End-to-end integrity: the server stamps the SHA-256 of the body it
		// wrote. A body mangled in transit still parses if the corruption
		// keeps the JSON well-formed; the digest does not lie. A missing or
		// wrong digest is a transport-class failure — retry elsewhere.
		sum := sha256.Sum256(data)
		if got, want := hex.EncodeToString(sum[:]), resp.Header.Get(bodySHAHeader); got != want {
			p.integrityFailures.Add(1)
			return nil, 0, &retryableError{err: fmt.Errorf(
				"%s: body integrity: sha256 %.16s… != %s %.16q", backend, got, bodySHAHeader, want)}
		}
		var sr struct {
			Stats    json.RawMessage `json:"stats"`
			Source   string          `json:"source"`
			Sampling *struct {
				Estimate *uarch.SampleEstimate `json:"estimate"`
			} `json:"sampling"`
		}
		if err := json.Unmarshal(data, &sr); err != nil || len(sr.Stats) == 0 {
			return nil, 0, &retryableError{err: fmt.Errorf("%s: malformed response: %v", backend, err)}
		}
		st := new(uarch.Stats)
		if err := json.Unmarshal(sr.Stats, st); err != nil {
			return nil, 0, &retryableError{err: fmt.Errorf("%s: malformed stats: %w", backend, err)}
		}
		raw := make([]byte, len(sr.Stats))
		copy(raw, sr.Stats)
		res := &Result{Stats: st, RawStats: raw, Source: sr.Source, Backend: backend}
		if sr.Sampling != nil {
			res.Estimate = sr.Sampling.Estimate
		}
		return res, 0, nil
	}
	return nil, parseRetryAfter(resp), p.translateError(backend, resp.StatusCode, data)
}

// bodySHAHeader carries the server's SHA-256 over a /v1/simulate response
// body, hex-encoded.
const bodySHAHeader = "X-Braid-Body-SHA256"

func parseRetryAfter(resp *http.Response) time.Duration {
	return retryAfterDuration(resp.Header.Get("Retry-After"), time.Now())
}

// retryAfterDuration parses a Retry-After header in either RFC 9110 form:
// delta-seconds ("120") or an HTTP-date ("Fri, 07 Aug 2026 12:00:00 GMT").
// A hint in the past, zero, or unparseable is no hint at all. The caller
// (sleepBackoff) caps whatever this returns at the pool's backoff ceiling,
// so a confused server cannot stall failover.
func retryAfterDuration(s string, now time.Time) time.Duration {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
		switch {
		case secs > int64(math.MaxInt64/time.Second):
			return math.MaxInt64 // too long for a Duration; never wrap negative
		case secs > 0:
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(s); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// errUnknownProgram is a backend's unknown_program answer: it does not hold
// the image a hash-only request named.
var errUnknownProgram = errors.New("backend does not hold the program image")

// translateError maps a backend's structured error to the local simulation
// error taxonomy, so experiments.Contained/Transient and braidbench's
// Failures() accounting classify remote failures exactly like local ones.
func (p *Pool) translateError(backend string, status int, data []byte) error {
	var env struct {
		Error struct {
			Kind    string `json:"kind"`
			Message string `json:"message"`
			Cycle   uint64 `json:"cycle"`
		} `json:"error"`
	}
	json.Unmarshal(data, &env) // best effort; an empty kind falls through below
	switch env.Error.Kind {
	case "sim_fault":
		return fmt.Errorf("remote %s: %w", backend,
			&uarch.SimFault{Cycle: env.Error.Cycle, Panic: env.Error.Message})
	case "cycle_limit":
		return fmt.Errorf("remote %s: %s: %w", backend, env.Error.Message, uarch.ErrCycleLimit)
	case "deadline":
		return fmt.Errorf("remote %s: %s: %w", backend, env.Error.Message, uarch.ErrTimeout)
	case "compile_fault", "bad_request":
		return fmt.Errorf("remote %s: status %d: %s", backend, status, env.Error.Message)
	case "unknown_program":
		return fmt.Errorf("remote %s: %w", backend, errUnknownProgram)
	}
	switch {
	case status == http.StatusTooManyRequests || status >= 500:
		return &retryableError{
			err:      fmt.Errorf("%s: status %d: %s", backend, status, bytes.TrimSpace(data)),
			overload: status == http.StatusTooManyRequests,
		}
	default:
		return fmt.Errorf("remote %s: status %d: %s", backend, status, bytes.TrimSpace(data))
	}
}

// verifyTolerance bounds the relative IPC disagreement accepted when
// verifying a sampled point. The estimator is deterministic, so the slack
// covers only cross-platform floating-point variation in the CPI scaling —
// a real divergence is orders of magnitude larger.
const verifyTolerance = 1e-9

// verifyLocal re-simulates the point in-process. Exact results must match
// the backend's Stats bytes bit for bit — the determinism contract
// distributed sweeps stand on. Sampled results carry float arithmetic in
// the estimate, so they are instead required to agree exactly on the
// architectural counts (retired/fetched — same trace either way) and on IPC
// within verifyTolerance.
func (p *Pool) verifyLocal(ctx context.Context, prog *isa.Program, cfg uarch.Config, sp uarch.Sampling, res *Result) error {
	if sp.Enabled() {
		st, _, err := uarch.SimulateSampled(ctx, prog, cfg, sp)
		if err != nil {
			return &VerifyError{Backend: res.Backend, Program: prog.Name,
				Detail: fmt.Sprintf("local sampled run failed where remote succeeded: %v", err)}
		}
		if st.Retired != res.Stats.Retired || st.Fetched != res.Stats.Fetched {
			return &VerifyError{Backend: res.Backend, Program: prog.Name,
				Detail: fmt.Sprintf("sampled architectural counts diverge: remote retired/fetched %d/%d, local %d/%d",
					res.Stats.Retired, res.Stats.Fetched, st.Retired, st.Fetched)}
		}
		local, rem := st.IPC(), res.Stats.IPC()
		if local == 0 || math.Abs(rem-local)/local > verifyTolerance {
			return &VerifyError{Backend: res.Backend, Program: prog.Name,
				Detail: fmt.Sprintf("sampled IPC diverges beyond tolerance: remote %.12f, local %.12f", rem, local)}
		}
		return nil
	}
	st, err := uarch.SimulateChecked(ctx, prog, cfg)
	if err != nil {
		return &VerifyError{Backend: res.Backend, Program: prog.Name,
			Detail: fmt.Sprintf("local run failed where remote succeeded: %v", err)}
	}
	want, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, res.RawStats) {
		return &VerifyError{Backend: res.Backend, Program: prog.Name,
			Detail: fmt.Sprintf("remote %s != local %s", res.RawStats, want)}
	}
	return nil
}

// ctxSentinel maps a context failure onto the simulation error taxonomy.
func ctxSentinel(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return uarch.ErrTimeout
	}
	return uarch.ErrCanceled
}

// Unavailable reports a point whose every attempt failed: the fleet is gone
// or drowning. It is transient — the point may succeed once backends return —
// so suite memo caches must not poison its key.
type Unavailable struct {
	Key      string // the point's routing key: its program image's SHA-256
	Attempts int
	Last     error
}

func (u *Unavailable) Error() string {
	return fmt.Sprintf("remote: all %d attempts failed (key %.16s…): %v", u.Attempts, u.Key, u.Last)
}
func (u *Unavailable) Unwrap() error { return u.Last }

// TransientError marks Unavailable for experiments.Transient.
func (u *Unavailable) TransientError() bool { return true }

// VerifyError reports a remote result that differs from local simulation —
// a broken determinism contract, never a skippable per-point failure.
type VerifyError struct {
	Backend string
	Program string
	Detail  string
}

func (v *VerifyError) Error() string {
	return fmt.Sprintf("remote: verification failed for %q on %s: %s", v.Program, v.Backend, v.Detail)
}
