package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatsIntegrityHeader: every /v1/simulate success carries the SHA-256
// of its exact body bytes, so clients can verify end-to-end that the stats,
// and everything sent with them, survived transit.
func TestStatsIntegrityHeader(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"kernel":"dot","core":"ooo","width":8}`,
		`{"kernel":"dot","core":"ooo","width":8}`, // repeat: a cache hit must hash identically
		`{"kernel":"fig2","core":"braid","width":8}`,
	} {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
		}
		header := resp.Header.Get(bodySHAHeader)
		if header == "" {
			t.Fatalf("%s: no %s header", body, bodySHAHeader)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != header {
			t.Errorf("%s: header %s != body sha %s", body, header, got)
		}
	}
}

// TestHealthzOverloadSignal: a healthy /healthz reports queue depth and an
// overloaded flag, flipping to true exactly when the admission queue is
// full — the signal probers use to tell "busy" from "broken".
func TestHealthzOverloadSignal(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: -1})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.testHookSimStart = func(_ context.Context, key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var hb struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Overloaded bool   `json:"overloaded"`
	}
	get := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		hb = struct {
			Status     string `json:"status"`
			QueueDepth int    `json:"queue_depth"`
			Overloaded bool   `json:"overloaded"`
		}{}
		if err := json.Unmarshal(data, &hb); err != nil {
			t.Fatalf("healthz body %s: %v", data, err)
		}
	}

	get()
	if hb.Status != "ok" || hb.Overloaded {
		t.Fatalf("idle healthz = %+v, want ok and not overloaded", hb)
	}

	// Fill the single queue slot (Workers 1, no slack): now saturated.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"kernel":"dot","core":"ooo"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the simulator")
	}
	get()
	if !hb.Overloaded {
		t.Errorf("healthz with a full admission queue = %+v, want overloaded", hb)
	}
	close(release)
	<-done
	get()
	if hb.Overloaded {
		t.Errorf("healthz after drain = %+v, want not overloaded", hb)
	}
}

// TestCanaryWaitsInsteadOfShedding: a request with the canary header must
// wait for a worker slot where a normal request would be shed with 429 —
// otherwise a prober would misread a saturated backend as broken.
func TestCanaryWaitsInsteadOfShedding(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: -1})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.testHookSimStart = func(_ context.Context, key string) {
		select {
		case started <- key:
			<-release
		default: // the canary's own run: don't block it
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Occupy the only worker and the only queue position.
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"kernel":"dot","core":"ooo"}`))
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the simulator")
	}

	// A normal request is shed...
	resp, data := postJSON(t, ts.URL+"/v1/simulate", `{"kernel":"fig2","core":"ooo"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("normal overflow request: status %d (%s), want 429", resp.StatusCode, data)
	}

	// ...but a canary waits. Issue it, prove it is still pending while the
	// worker is held, then release and watch it succeed.
	canaryDone := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
			strings.NewReader(`{"kernel":"fig2","core":"ooo"}`))
		if err != nil {
			canaryDone <- -1
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(canaryHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			canaryDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		canaryDone <- resp.StatusCode
	}()
	select {
	case code := <-canaryDone:
		t.Fatalf("canary finished with %d while the pool was saturated; it must wait", code)
	case <-time.After(200 * time.Millisecond):
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	select {
	case code := <-canaryDone:
		if code != http.StatusOK {
			t.Fatalf("canary finished with %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canary never completed after the worker freed up")
	}
}
