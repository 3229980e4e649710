// Package service is the braid simulation service: a long-running HTTP/JSON
// layer over the compiler and cycle-level simulator. It turns the library's
// fault-containment machinery into service semantics — contained *SimFault
// panics become structured 422s, context deadlines bound each request's
// simulation, a bounded admission queue sheds overload with 429, identical
// concurrent requests coalesce onto one run, a program cache builds each
// program source once, and a deterministic-result LRU answers repeats
// without simulating at all.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"braid/internal/isa"
	"braid/internal/uarch"
)

// bodySHAHeader carries the hex SHA-256 of a /v1/simulate response body,
// for end-to-end integrity verification. The internal/remote client keeps
// its own copy: it imports this package, not the other way around.
const bodySHAHeader = "X-Braid-Body-SHA256"

// Config sizes the server. A zero Workers takes GOMAXPROCS.
type Config struct {
	Workers   int       // concurrent simulations
	AccessLog io.Writer // structured JSON access log (nil: disabled)

	// queueDepth is the number of admitted requests that may wait beyond
	// Workers: 0 takes 4*Workers and a negative value none. Only tests set
	// it.
	queueDepth int
}

// The server's fixed bounds: result-cache entries and the request-body
// limit. A request's cycle and wall-clock ceilings are Build's defaults.
const (
	resultCacheEntries = 1024
	maxBodyBytes       = 8 << 20
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.queueDepth == 0 {
		c.queueDepth = 4 * c.Workers
	}
	if c.queueDepth < 0 {
		c.queueDepth = 0
	}
	return c
}

// Server implements the simulation service endpoints. Create one with New
// and mount Handler on an http.Server; http.Server.Shutdown drains it.
type Server struct {
	cfg      Config
	adm      *admission
	cache    *resultCache
	programs *lru[progKey, *programHalf]
	flights  *flightGroup
	met      *metrics
	mux      *http.ServeMux
	logMu    sync.Mutex

	// releaseProgram drops a program's replay state
	// (uarch.ReleaseProgram); tests replace it to count releases.
	releaseProgram func(*isa.Program)
	// keptTrace is the longest replay trace a run leaves cached
	// (keptTraceInstrs); tests lower it.
	keptTrace uint64

	// testHookSimStart, when set, runs on the leader's goroutine after it
	// holds a worker slot and before it simulates, with the request context.
	// Tests use it to hold the pool busy deterministically; never set
	// outside tests.
	testHookSimStart func(ctx context.Context, key string)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.Workers, cfg.queueDepth),
		cache:   newResultCache(resultCacheEntries),
		flights: newFlightGroup(),
		met:     newMetrics(time.Now()),

		releaseProgram: uarch.ReleaseProgram,
		keptTrace:      keptTraceInstrs,
	}
	s.programs = newLRU[progKey, *programHalf](programCacheEntries, s.evictProgram)
	s.met.m.Set("queue_depth", expvar.Func(func() any { return s.adm.waiting() }))
	s.met.m.Set("workers_busy", expvar.Func(func() any { return s.adm.busy() }))
	s.met.m.Set("cache_entries", expvar.Func(func() any { return s.cache.len() }))
	s.met.m.Set("program_cache_entries", expvar.Func(func() any { return s.programs.len() }))

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler is the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SimResponse is the success body of POST /v1/simulate. Sampling is present
// exactly when the request asked for interval-sampled timing; exact
// responses are byte-identical to the pre-sampling schema.
type SimResponse struct {
	Program     string        `json:"program"`
	Core        string        `json:"core"`
	Width       int           `json:"width"`
	Braided     bool          `json:"braided"`
	ProgramHash string        `json:"program_hash"`
	ConfigHash  string        `json:"config_hash"`
	IPC         float64       `json:"ipc"`
	Stats       *uarch.Stats  `json:"stats"`
	Sampling    *SampledBlock `json:"sampling,omitempty"`
	Source      string        `json:"source"` // run, cache, or coalesced
	SimMS       float64       `json:"sim_ms"` // leader's wall-clock simulation time
}

// SampledBlock is the sampled-timing section of a SimResponse: the geometry
// the run used and the estimate's provenance (interval count, detailed vs
// fast-forwarded split, confidence interval).
type SampledBlock struct {
	Geometry uarch.Sampling        `json:"geometry"`
	Estimate *uarch.SampleEstimate `json:"estimate"`
}

// ErrorBody is the error payload, wrapped as {"error": {...}}.
type ErrorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Cycle   uint64 `json:"cycle,omitempty"` // where a contained fault or limit stopped
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// simResult is what runSim hands back on success.
type simResult struct {
	st     *uarch.Stats
	est    *uarch.SampleEstimate // non-nil only for sampled runs
	source string
	simMS  float64
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorBody{Kind: "bad_request", Message: err.Error()})
		return
	}
	b, err := s.build(&req)
	if err != nil {
		status, body := buildErrorBody(err)
		s.writeError(w, status, body)
		return
	}
	res, err := s.runSim(r.Context(), b)
	if err != nil {
		status, body := simErrorBody(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		s.writeError(w, status, body)
		return
	}
	// Marshal once and stamp the SHA-256 of exactly the bytes written, so
	// the client can verify end-to-end that the whole body — Stats and the
	// sampling estimate — survived transit.
	body, err := json.Marshal(s.response(b, res))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, ErrorBody{Kind: "internal", Message: err.Error()})
		return
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	w.Header().Set(bodySHAHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s.met.m.String())
	io.WriteString(w, "\n")
}

// runSim resolves one built simulation: result cache, then coalescing onto
// an identical in-progress run, then the admission queue and a worker slot,
// then the simulator itself under the request deadline.
//
// A cache miss is counted only for the flight leader — the request that
// actually puts demand on the simulator. Followers count as coalesced, and
// a follower whose leader was canceled (the leader's client hung up, so the
// flight published context.Canceled) re-elects instead of inheriting an
// error its own still-live caller never caused.
func (s *Server) runSim(ctx context.Context, b *Built) (*simResult, error) {
	key := b.Key()
	for {
		if st, est, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			return &simResult{st: st, est: est, source: "cache"}, nil
		}

		fl, leader := s.flights.join(key)
		if !leader {
			s.met.coalesced.Add(1)
			select {
			case <-fl.done:
				if fl.err != nil {
					if isCancellation(fl.err) && ctx.Err() == nil {
						s.met.reelected.Add(1)
						continue // leader's client is gone, ours is not: re-elect
					}
					return nil, fl.err
				}
				return &simResult{st: cloneStats(fl.st), est: cloneEstimate(fl.est), source: "coalesced", simMS: fl.simMS}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}

		// A request that missed the cache just before the previous leader
		// stored its result, and joined just after that flight ended, leads
		// a new flight: look again before simulating the key twice.
		if st, est, ok := s.cache.get(key); ok {
			s.flights.complete(key, fl, st, est, nil, 0)
			s.met.cacheHits.Add(1)
			return &simResult{st: st, est: est, source: "cache"}, nil
		}

		s.met.cacheMiss.Add(1)
		st, est, simMS, err := s.lead(ctx, key, b)
		if err == nil {
			// Store before the flight ends, so a follower's next request,
			// or one arriving as the flight ends, finds the result cached.
			s.cache.put(key, st, est)
		}
		s.flights.complete(key, fl, st, est, err, simMS)
		if err != nil {
			s.classifyFailure(err)
			return nil, err
		}
		s.met.simRuns.Add(1)
		s.met.simInstrs.Add(int64(st.Retired))
		s.met.simCycles.Add(int64(st.Cycles))
		if est != nil && !est.Exact {
			s.met.simDetailed.Add(int64(est.DetailedInstrs))
			s.met.simFFwd.Add(int64(est.FFwdInstrs))
		} else {
			s.met.simDetailed.Add(int64(st.Retired))
		}
		s.met.simNanos.Add(int64(simMS * 1e6))
		return &simResult{st: st, est: est, source: "run", simMS: simMS}, nil
	}
}

// isCancellation reports a failure caused by the requester going away, as
// opposed to the simulation itself failing.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, uarch.ErrCanceled)
}

// lead is the flight leader's path: pass admission, take a worker slot, and
// simulate under the request's wall-clock deadline.
func (s *Server) lead(ctx context.Context, key string, b *Built) (*uarch.Stats, *uarch.SampleEstimate, float64, error) {
	if err := s.adm.admit(); err != nil {
		return nil, nil, 0, err
	}
	defer s.adm.releaseQueue()
	if err := s.adm.acquire(ctx); err != nil {
		return nil, nil, 0, err
	}
	defer s.adm.releaseSlot()
	if h := s.testHookSimStart; h != nil {
		h(ctx, key)
	}
	simCtx, cancel := context.WithTimeout(ctx, b.Timeout)
	defer cancel()
	t0 := time.Now()
	st, est, err := uarch.SimulateSampled(simCtx, b.Program, b.Config, b.Sampling)
	simMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	// Drop the program's replay state if this run may have rebuilt what
	// eviction released, if the run failed (it stopped before the program
	// ended, so the trace is as long as the run's budget let it grow and is
	// never trimmed), or if the program is longer than a kept trace.
	if b.half.evicted.Load() || err != nil || st.Retired > s.keptTrace {
		s.releaseProgram(b.Program)
	}
	return st, est, simMS, err
}

func (s *Server) classifyFailure(err error) {
	var fault *uarch.SimFault
	switch {
	case errors.As(err, &fault):
		s.met.faults.Add(1)
	case errors.Is(err, uarch.ErrCycleLimit):
		s.met.cycleLim.Add(1)
	case errors.Is(err, uarch.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		s.met.deadline.Add(1)
	case errors.Is(err, uarch.ErrCanceled), errors.Is(err, context.Canceled):
		s.met.canceled.Add(1)
	case errors.Is(err, errOverloaded):
		s.met.shed.Add(1)
	}
}

// buildErrorBody maps a Build failure: bad input is 400, an image_sha256
// this server does not hold is 404, and a contained compiler panic is 422
// (the request was well-formed; the service hit a contained fault
// processing it).
func buildErrorBody(err error) (int, ErrorBody) {
	var cf *CompileFault
	if errors.As(err, &cf) {
		return http.StatusUnprocessableEntity, ErrorBody{Kind: "compile_fault", Message: cf.Error()}
	}
	if errors.Is(err, errUnknownProgram) {
		return http.StatusNotFound, ErrorBody{Kind: "unknown_program", Message: err.Error()}
	}
	return http.StatusBadRequest, ErrorBody{Kind: "bad_request", Message: err.Error()}
}

// simErrorBody maps a simulation failure to its HTTP shape: contained
// faults and exhausted cycle budgets are structured 422s, overload is 429,
// a wall-clock deadline is 504, everything else is 500.
func simErrorBody(err error) (int, ErrorBody) {
	var fault *uarch.SimFault
	switch {
	case errors.As(err, &fault):
		return http.StatusUnprocessableEntity, ErrorBody{
			Kind:    "sim_fault",
			Message: fault.Error(),
			Cycle:   fault.Cycle,
		}
	case errors.Is(err, uarch.ErrCycleLimit):
		return http.StatusUnprocessableEntity, ErrorBody{Kind: "cycle_limit", Message: err.Error()}
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, ErrorBody{Kind: "overloaded", Message: err.Error()}
	case errors.Is(err, uarch.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorBody{Kind: "deadline", Message: err.Error()}
	case errors.Is(err, uarch.ErrCanceled), errors.Is(err, context.Canceled):
		// The client is gone; the status is for the access log's benefit.
		return 499, ErrorBody{Kind: "canceled", Message: err.Error()}
	default:
		return http.StatusInternalServerError, ErrorBody{Kind: "internal", Message: err.Error()}
	}
}

// retryAfter estimates when a shed client should try again: the queue ahead
// of it, paced by the per-request wall-clock ceiling, floored at one second.
func (s *Server) retryAfter() string {
	secs := int64(1)
	if est := int64(defaultMaxSimTime/time.Second) * int64(s.adm.waiting()+1) / int64(s.cfg.Workers); est > secs {
		secs = est
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) response(b *Built, res *simResult) SimResponse {
	ipc := 0.0
	if res.st.Cycles > 0 {
		ipc = float64(res.st.Retired) / float64(res.st.Cycles)
	}
	resp := SimResponse{
		Program:     b.Program.Name,
		Core:        b.Config.Core.String(),
		Width:       b.Config.IssueWidth,
		Braided:     b.Braided,
		ProgramHash: b.ProgHash,
		ConfigHash:  b.ConfHash,
		IPC:         ipc,
		Stats:       res.st,
		Source:      res.source,
		SimMS:       res.simMS,
	}
	if b.Sampling.Enabled() {
		resp.Sampling = &SampledBlock{Geometry: b.Sampling, Estimate: res.est}
	}
	return resp
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst)
}

// decodeJSON decodes one request body strictly: unknown fields are errors.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, body ErrorBody) {
	s.writeJSON(w, status, errorEnvelope{Error: body})
}

// statusWriter captures the status and size a handler wrote, for metrics
// and the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// instrument wraps a handler with request counting, per-endpoint latency
// observation, and the structured access log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		d := time.Since(t0)
		s.met.observe(endpoint, sw.status, d)
		s.accessLog(r, sw, d)
	}
}

// accessLog emits one JSON line per request: timestamp, method, path,
// status, latency, response size, and peer address.
func (s *Server) accessLog(r *http.Request, sw *statusWriter, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"ts":     time.Now().UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": sw.status,
		"ms":     float64(d.Nanoseconds()) / 1e6,
		"bytes":  sw.bytes,
		"remote": r.RemoteAddr,
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}
