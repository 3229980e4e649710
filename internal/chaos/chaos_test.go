package chaos

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeBackend answers every simulate with a fixed JSON body and an integrity
// header, and healthz with 200, like a real braidd would.
func fakeBackend(t *testing.T, body string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Braid-Body-SHA256", "deadbeef")
		io.WriteString(w, body)
	}))
}

func post(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

const statsBody = `{"stats":{"cycles":123,"retired":456},"ipc":3.7,"source":"run"}` + "\n"

func TestEveryNCadenceAndStatusFault(t *testing.T) {
	backend := fakeBackend(t, statsBody)
	defer backend.Close()
	p, err := New(backend.URL, EveryN(3,
		Fault{Kind: Status, Status: 429, RetryAfter: "1"},
		Fault{Kind: Status, Status: 503}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	// Health checks never consume sequence numbers or fault.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("healthz %d: %v %v", i, err, resp)
		}
		resp.Body.Close()
	}

	var statuses []int
	var retryAfter []string
	for i := 0; i < 12; i++ {
		resp, body, err := post(t, ts.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		statuses = append(statuses, resp.StatusCode)
		retryAfter = append(retryAfter, resp.Header.Get("Retry-After"))
		if resp.StatusCode == 200 && string(body) != statsBody {
			t.Fatalf("request %d: passthrough body altered: %q", i, body)
		}
	}
	// Requests 3,6,9,12 (1-based) fault, cycling 429, 503, 429, 503.
	want := []int{200, 200, 429, 200, 200, 503, 200, 200, 429, 200, 200, 503}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("statuses = %v, want %v", statuses, want)
		}
	}
	if retryAfter[2] != "1" || retryAfter[5] != "" {
		t.Errorf("Retry-After headers: %q (429) and %q (503)", retryAfter[2], retryAfter[5])
	}
	if p.Faults() != 4 || p.Injected(Status) != 4 {
		t.Errorf("fault counters: total %d, status %d, want 4, 4", p.Faults(), p.Injected(Status))
	}
}

func TestReset(t *testing.T) {
	backend := fakeBackend(t, statsBody)
	defer backend.Close()
	p, err := New(backend.URL, EveryN(1, Fault{Kind: Reset}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()
	if _, body, err := post(t, ts.URL); err == nil {
		t.Errorf("reset: expected a transport error, got body %q", body)
	}
	if p.Injected(Reset) != 1 {
		t.Errorf("reset counter = %d, want 1", p.Injected(Reset))
	}
}

func TestCorruptKeepsShapeButChangesStats(t *testing.T) {
	backend := fakeBackend(t, statsBody)
	defer backend.Close()
	p, err := New(backend.URL, EveryN(1, Fault{Kind: Corrupt}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()
	resp, body, err := post(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Braid-Body-SHA256") != "deadbeef" {
		t.Error("corrupt dropped the integrity header; it must relay headers verbatim")
	}
	if len(body) != len(statsBody) {
		t.Errorf("corrupt changed body length: %d != %d", len(body), len(statsBody))
	}
	if bytes.Equal(body, []byte(statsBody)) {
		t.Fatal("corrupt changed nothing")
	}
	var parsed struct {
		Stats map[string]any `json:"stats"`
		IPC   float64        `json:"ipc"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("corrupted body no longer parses: %v", err)
	}
	if parsed.IPC != 3.7 {
		t.Errorf("corruption leaked outside the stats object: ipc = %v", parsed.IPC)
	}
	if parsed.Stats["cycles"].(float64) == 123 {
		t.Error("stats object unchanged after corruption")
	}
}

func TestFlapperPhasesAndForce(t *testing.T) {
	f := Flap(10*time.Millisecond, 10*time.Millisecond)
	if !f.IsDown() {
		t.Error("a fresh flapper must start down")
	}
	f.Force(true)
	if f.IsDown() {
		t.Error("Force(true) must pin the flapper up")
	}
	if got := f.Schedule(nil, 0); got.Kind != Pass {
		t.Errorf("up flapper schedule = %v, want Pass", got.Kind)
	}
	f.Force(false)
	if !f.IsDown() {
		t.Error("Force(false) must pin the flapper down")
	}
	if got := f.Schedule(nil, 0); got.Kind != Reset {
		t.Errorf("down flapper schedule = %v, want Reset", got.Kind)
	}
}

func TestChainFirstNonPassWins(t *testing.T) {
	pass := func(*http.Request, int64) Fault { return Fault{Kind: Pass} }
	rst := func(*http.Request, int64) Fault { return Fault{Kind: Reset} }
	if got := Chain(pass, rst)(nil, 0); got.Kind != Reset {
		t.Errorf("chain = %v, want Reset", got.Kind)
	}
	if got := Chain(pass, pass)(nil, 0); got.Kind != Pass {
		t.Errorf("chain = %v, want Pass", got.Kind)
	}
}
