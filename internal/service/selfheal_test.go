package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"
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
