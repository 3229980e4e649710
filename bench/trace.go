package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"braid/internal/isa"
	"braid/internal/remote"
	"braid/internal/uarch"
)

// span is one timed call at a layer boundary. Layer names the repository
// module whose public function was called ("bench" for the benchmark's own
// code); Req is shared by the client and server spans of one HTTP request.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_us"` // since the pass began
	End    float64 `json:"end_us"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory for one traced pass. A nil *tracer records
// nothing, so the untraced reference computations share the traced code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span; req, when non-empty, is the request id it shares.
func (t *tracer) start(parent int64, layer, name, req string) *span {
	if t == nil {
		return &span{}
	}
	s := &span{Parent: parent, Layer: layer, Name: name, Req: req, Start: t.now()}
	t.mu.Lock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	e := t.now()
	t.mu.Lock()
	s.End = e
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(parent int64, layer, name string, fn func() error) error {
	s := t.start(parent, layer, name, "")
	err := fn()
	t.end(s)
	return err
}

// snapshot returns the finished spans; call it once the pass's goroutines
// have stopped.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

type parentKey struct{}

func withParent(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(parentKey{}).(int64)
	return id
}

// reqHeader carries the client span's id to the server, which records its
// handler span as that span's child.
const reqHeader = "X-Bench-Request"

// tracedTransport records one span per HTTP attempt, from sending the
// request until the caller closes the response body, and stamps the span's
// id into reqHeader.
type tracedTransport struct {
	tr          *tracer
	base        http.RoundTripper
	layer, name string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.tr.start(parentOf(req.Context()), t.layer, t.name+" "+req.URL.Path, "")
	id := strconv.FormatInt(s.ID, 10)
	t.tr.mu.Lock()
	s.Req = id
	t.tr.mu.Unlock()
	r := req.Clone(req.Context())
	r.Header.Set(reqHeader, id)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.end(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.tr.end(s) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// handler wraps a server's root handler in a span paired with the client's
// attempt through reqHeader.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(reqHeader)
		parent, _ := strconv.ParseInt(req, 10, 64)
		s := t.start(parent, "service", "service.handler "+r.URL.Path, req)
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// tally accumulates the simulations of one core kind.
type tally struct {
	calls                     int
	us                        float64
	retired, cycles, detailed uint64
}

// timedRunner is the experiments.Runner/SampledRunner a traced pass installs:
// each simulation is a span under the experiment currently running, timed
// around uarch.SimulateChecked/SimulateSampled or, for the fleet, the remote
// pool.
type timedRunner struct {
	tr     *tracer
	pool   *remote.Pool // nil: the in-process simulator
	parent atomic.Int64 // span of the running experiment

	mu    sync.Mutex
	cores map[uarch.CoreKind]*tally
}

func (r *timedRunner) Simulate(ctx context.Context, p *isa.Program, cfg uarch.Config) (*uarch.Stats, error) {
	st, _, err := r.SimulateSampled(ctx, p, cfg, uarch.Sampling{})
	return st, err
}

func (r *timedRunner) SimulateSampled(ctx context.Context, p *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error) {
	var (
		st  *uarch.Stats
		est *uarch.SampleEstimate
		err error
		s   *span
	)
	switch {
	case r.pool != nil:
		// fleet-sweep is exact, as braidbench -remote is without -sample.
		s = r.tr.start(r.parent.Load(), "remote", "remote.Pool.Simulate", "")
		st, err = r.pool.Simulate(withParent(ctx, s.ID), p, cfg)
	case sp.Enabled():
		s = r.tr.start(r.parent.Load(), "uarch", "uarch.SimulateSampled", "")
		st, est, err = uarch.SimulateSampled(ctx, p, cfg, sp)
	default:
		s = r.tr.start(r.parent.Load(), "uarch", "uarch.SimulateChecked", "")
		st, err = uarch.SimulateChecked(ctx, p, cfg)
	}
	r.tr.end(s)
	if err != nil {
		return st, est, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cores == nil {
		r.cores = map[uarch.CoreKind]*tally{}
	}
	c := r.cores[cfg.Core]
	if c == nil {
		c = &tally{}
		r.cores[cfg.Core] = c
	}
	c.calls++
	c.us += s.dur()
	c.retired += st.Retired
	c.cycles += st.Cycles
	if est != nil && !est.Exact {
		c.detailed += est.DetailedInstrs
	} else {
		c.detailed += st.Retired
	}
	return st, est, nil
}

// total sums the tallies of every core kind.
func (r *timedRunner) total() tally {
	var t tally
	for _, c := range r.cores {
		t.calls += c.calls
		t.us += c.us
		t.retired += c.retired
		t.cycles += c.cycles
		t.detailed += c.detailed
	}
	return t
}

// durationsMS lists the durations of the spans called name, in ms.
func durationsMS(spans []*span, name string) []float64 {
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, s.dur()/1e3)
		}
	}
	return ms
}

// children indexes spans by parent id.
func children(spans []*span) map[int64][]*span {
	m := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			m[s.Parent] = append(m[s.Parent], s)
		}
	}
	return m
}

// concurrency returns how long, within s, exactly k of kids were running,
// for every k; kids may overlap.
func concurrency(s *span, kids []*span) map[int]float64 {
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			edges = append(edges, edge{a, 1}, edge{b, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	out := map[int]float64{}
	at, running := s.Start, 0
	for _, e := range edges {
		out[running] += e.at - at
		at, running = e.at, running+e.delta
	}
	out[running] += s.End - at
	return out
}

// self is a span's duration minus the part of it its children cover.
func self(s *span, kids []*span) float64 { return concurrency(s, kids)[0] }

// layerStat is one layer's share of a pass.
type layerStat struct {
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize totals spans and their self time by layer.
func summarize(spans []*span) map[string]*layerStat {
	kids := children(spans)
	out := map[string]*layerStat{}
	for _, s := range spans {
		l := out[s.Layer]
		if l == nil {
			l = &layerStat{}
			out[s.Layer] = l
		}
		l.Calls++
		l.TotalS += s.dur() / 1e6
		l.SelfS += self(s, kids[s.ID]) / 1e6
	}
	return out
}

// writeChromeTrace writes every pass's spans as Chrome trace-event JSON, one
// process per pass. Spans that overlap without nesting go on separate
// thread lanes, since the viewer requires nesting within a lane.
func writeChromeTrace(path string, passes []*passResult) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for i, p := range passes {
		pid := i + 1
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": p.Workload}})
		spans := append([]*span(nil), p.Spans...)
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		var lanes [][]*span // each lane is a stack of open spans
		for _, s := range spans {
			lane := -1
			for li, stack := range lanes {
				for len(stack) > 0 && stack[len(stack)-1].End <= s.Start {
					stack = stack[:len(stack)-1]
				}
				lanes[li] = stack
				if lane < 0 && (len(stack) == 0 || stack[len(stack)-1].End >= s.End) {
					lane = li
				}
			}
			if lane < 0 {
				lanes = append(lanes, nil)
				lane = len(lanes) - 1
			}
			lanes[lane] = append(lanes[lane], s)
			args := map[string]any{"id": s.ID, "parent": s.Parent}
			if s.Req != "" {
				args["req"] = s.Req
			}
			events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X", TS: s.Start, Dur: s.dur(), PID: pid, TID: lane + 1, Args: args})
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
