// Package chaos is a programmable fault-injecting reverse proxy for braidd
// backends. A Proxy sits between a client pool and one real backend and
// consults a Schedule on every request: the schedule decides whether the
// request passes through untouched or suffers one of three faults — an
// overload status, a raw connection reset, or corrupted-but-well-formed
// JSON. Soak tests and the braidchaos CLI both build on it, so there is
// exactly one fault-injection implementation to keep honest.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Pass forwards the request to the backend untouched.
	Pass Kind = iota
	// Status answers with Fault.Status (default 503) without contacting the
	// backend; Fault.RetryAfter, when set, becomes the Retry-After header.
	Status
	// Reset hijacks the connection and closes it with SO_LINGER 0, so the
	// client sees a TCP RST rather than a graceful FIN.
	Reset
	// Corrupt forwards the request and relays the response intact except for
	// one digit inside the "stats" object flipped to a different digit: the
	// body stays the same length and stays valid JSON, so only an end-to-end
	// integrity check can notice.
	Corrupt

	nKinds = iota
)

var kindNames = [nKinds]string{"pass", "status", "reset", "corrupt"}

func (k Kind) String() string {
	if k >= 0 && int(k) < nKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// ParseKind resolves a fault-kind name used by the braidchaos CLI. "429"
// and "503" are accepted as shorthand for Status faults with that code.
func ParseKind(s string) (Fault, error) {
	switch s {
	case "pass":
		return Fault{Kind: Pass}, nil
	case "429":
		return Fault{Kind: Status, Status: http.StatusTooManyRequests, RetryAfter: "1"}, nil
	case "503", "5xx", "status":
		return Fault{Kind: Status, Status: http.StatusServiceUnavailable}, nil
	case "reset", "rst":
		return Fault{Kind: Reset}, nil
	case "corrupt":
		return Fault{Kind: Corrupt}, nil
	}
	return Fault{}, fmt.Errorf("chaos: unknown fault kind %q", s)
}

// Fault is one scheduled outcome for one request.
type Fault struct {
	Kind       Kind
	Status     int    // Status faults: HTTP code (default 503)
	RetryAfter string // Status faults: Retry-After header value, if nonempty
}

// Schedule decides the fault for one request. n is the 1-based sequence
// number of simulate requests seen so far (other paths observe the current
// count without advancing it), so schedules can express cadences like
// "every third simulate".
type Schedule func(r *http.Request, n int64) Fault

// Proxy is an http.Handler fronting one backend with scheduled faults.
type Proxy struct {
	backend *url.URL
	sched   Schedule
	rp      *httputil.ReverseProxy
	client  *http.Client

	seq    atomic.Int64 // simulate requests seen
	total  atomic.Int64 // faults injected (anything but Pass)
	byKind [nKinds]atomic.Int64
}

// New builds a proxy for backendURL driven by sched. A nil schedule passes
// everything through.
func New(backendURL string, sched Schedule) (*Proxy, error) {
	u, err := url.Parse(backendURL)
	if err != nil {
		return nil, fmt.Errorf("chaos: backend url: %w", err)
	}
	if sched == nil {
		sched = func(*http.Request, int64) Fault { return Fault{Kind: Pass} }
	}
	return &Proxy{
		backend: u,
		sched:   sched,
		rp:      httputil.NewSingleHostReverseProxy(u),
		client:  &http.Client{},
	}, nil
}

// Faults is the total number of injected (non-Pass) faults.
func (p *Proxy) Faults() int64 { return p.total.Load() }

// Injected is the number of injected faults of one kind.
func (p *Proxy) Injected(k Kind) int64 {
	if k < 0 || int(k) >= nKinds {
		return 0
	}
	return p.byKind[k].Load()
}

// Counters renders the per-kind fault counts, for logs.
func (p *Proxy) Counters() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d faults", p.total.Load())
	for k := 1; k < nKinds; k++ {
		if n := p.byKind[k].Load(); n > 0 {
			fmt.Fprintf(&b, " %s=%d", Kind(k).String(), n)
		}
	}
	return b.String()
}

func isSimulate(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == "/v1/simulate"
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := p.seq.Load()
	if isSimulate(r) {
		n = p.seq.Add(1)
	}
	f := p.sched(r, n)
	if f.Kind != Pass {
		p.total.Add(1)
		p.byKind[f.Kind].Add(1)
	}
	switch f.Kind {
	case Status:
		status := f.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		if f.RetryAfter != "" {
			w.Header().Set("Retry-After", f.RetryAfter)
		}
		w.WriteHeader(status)
	case Reset:
		reset(w)
	case Corrupt:
		p.corrupt(w, r)
	default:
		p.rp.ServeHTTP(w, r)
	}
}

// reset closes the client connection with SO_LINGER 0 so the kernel sends a
// TCP RST instead of finishing the handshake politely — the closest a proxy
// can get to a backend process dying mid-request.
func reset(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// roundTrip performs the upstream request manually, so the corrupt fault can
// rewrite the response before relaying it.
func (p *Proxy) roundTrip(r *http.Request) (*http.Response, []byte, error) {
	u := *p.backend
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), r.Body)
	if err != nil {
		return nil, nil, err
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// corrupt relays the response intact — status, every header (integrity
// headers included), exact body length — except that one digit inside the
// "stats" object is flipped. The body still parses, so without an
// end-to-end integrity check the client would accept silently wrong Stats.
func (p *Proxy) corrupt(w http.ResponseWriter, r *http.Request) {
	resp, body, err := p.roundTrip(r)
	if err != nil {
		reset(w)
		return
	}
	body = corruptDigit(body)
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// corruptDigit flips the first digit found after the "stats" key (falling
// back to the first digit anywhere) to a different digit, preserving length
// and JSON validity.
func corruptDigit(body []byte) []byte {
	out := append([]byte(nil), body...)
	start := bytes.Index(out, []byte(`"stats"`))
	if start < 0 {
		start = 0
	}
	for i := start; i < len(out); i++ {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '0' + (out[i]-'0'+1)%10
			return out
		}
	}
	return out
}

// EveryN is a Schedule injecting faults on every nth simulate request,
// cycling through the given faults in order; every other request — health
// checks included — passes through. EveryN(3, f429, fRST) reproduces the
// original flaky-backend soak: every third simulate faulted, alternating
// shed and reset.
func EveryN(n int64, faults ...Fault) Schedule {
	if n <= 0 || len(faults) == 0 {
		return func(*http.Request, int64) Fault { return Fault{Kind: Pass} }
	}
	return func(r *http.Request, seq int64) Fault {
		if !isSimulate(r) || seq == 0 || seq%n != 0 {
			return Fault{Kind: Pass}
		}
		return faults[(seq/n-1)%int64(len(faults))]
	}
}

// Flapper is a time-based backend flap: starting in the down phase, the
// backend resets every connection (health checks included) for down, then
// behaves for up, repeating. It models a backend crash-looping or a network
// partition healing and re-breaking mid-sweep.
type Flapper struct {
	down, up time.Duration
	start    time.Time
	force    atomic.Int32 // 0: follow the clock, 1: force up, 2: force down
}

// Flap builds a Flapper that is down for down, then up for up, repeatedly,
// starting (immediately) with the down phase.
func Flap(down, up time.Duration) *Flapper {
	return &Flapper{down: down, up: up, start: time.Now()}
}

// Force pins the flapper to a phase regardless of the clock: up pins it
// healthy, !up pins it down. Tests use this for deterministic transitions.
func (f *Flapper) Force(up bool) {
	if up {
		f.force.Store(1)
	} else {
		f.force.Store(2)
	}
}

// IsDown reports whether the flapper is currently in its down phase.
func (f *Flapper) IsDown() bool {
	switch f.force.Load() {
	case 1:
		return false
	case 2:
		return true
	}
	period := f.down + f.up
	if period <= 0 {
		return false
	}
	return time.Since(f.start)%period < f.down
}

// Schedule is the Flapper's Schedule: while down, every request resets.
func (f *Flapper) Schedule(r *http.Request, n int64) Fault {
	if f.IsDown() {
		return Fault{Kind: Reset}
	}
	return Fault{Kind: Pass}
}

// Chain composes schedules: the first non-Pass fault wins. A flapping
// backend that also corrupts every fifth response while up is
// Chain(flapper.Schedule, EveryN(5, Fault{Kind: Corrupt})).
func Chain(scheds ...Schedule) Schedule {
	return func(r *http.Request, n int64) Fault {
		for _, s := range scheds {
			if f := s(r, n); f.Kind != Pass {
				return f
			}
		}
		return Fault{Kind: Pass}
	}
}
