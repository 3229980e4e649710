package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"testing"

	"braid/internal/isa"
)

// FuzzBuild is a differential fuzz target for the request path. The fuzz
// bytes decode the way handleSimulate decodes a body, then resolve through
// the uncached Build and through the server's program-cached path, cold and
// then warm, plus once more on a server shared by every input (where a key
// collision between two sources would surface). All paths must fail with
// the same error class, or agree on the result-cache key, both hashes, the
// braided flag, the deadline and the program's image bytes. No input may
// panic.
func FuzzBuild(f *testing.F) {
	for _, seed := range []string{
		// TestBadRequests
		`{`,
		`{}`,
		`{"workload":"gcc","kernel":"dot"}`,
		`{"workload":"no-such-profile"}`,
		`{"kernel":"dot","core":"no-such-core"}`,
		`{"kernel":"dot","bogus_field":1}`,
		`{"asm":".data 999999999999\n\thalt\n"}`,
		// TestBuildKeyStability
		`{"workload":"gcc","iters":20,"core":"ooo","width":8}`,
		`{"workload":"gcc","iters":21,"core":"ooo","width":8}`,
		`{"workload":"gcc","iters":20,"core":"ooo","width":4}`,
		`{"workload":"gcc","iters":20,"core":"braid","width":8}`,
		`{"workload":"mcf","iters":20,"core":"ooo","width":8}`,
	} {
		f.Add([]byte(seed))
	}
	asmReq, err := json.Marshal(SimRequest{Asm: countdownAsm(5), Core: "braid", Width: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(asmReq)
	f.Add(imageRequestSeed(f))

	shared := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimRequest
		if decodeJSON(bytes.NewReader(data), &req) != nil {
			return
		}
		want, wantErr := Build(&req, Limits{})
		svc := New(Config{})
		for _, path := range []struct {
			name string
			s    *Server
		}{{"cold", svc}, {"warm", svc}, {"shared", shared}} {
			got, err := path.s.build(&req)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: Build error %v, cached path error %v", path.name, wantErr, err)
			}
			if err != nil {
				ws, wb := buildErrorBody(wantErr)
				gs, gb := buildErrorBody(err)
				if ws != gs || wb.Kind != gb.Kind {
					t.Fatalf("%s: Build fails %d %s (%v), cached path %d %s (%v)",
						path.name, ws, wb.Kind, wantErr, gs, gb.Kind, err)
				}
				continue
			}
			if got.Key() != want.Key() || got.ProgHash != want.ProgHash || got.ConfHash != want.ConfHash ||
				got.Braided != want.Braided || got.Timeout != want.Timeout {
				t.Fatalf("%s: cached path built key %s braided %v timeout %v, Build key %s braided %v timeout %v",
					path.name, got.Key(), got.Braided, got.Timeout, want.Key(), want.Braided, want.Timeout)
			}
			if !bytes.Equal(imageBytes(t, got.Program), imageBytes(t, want.Program)) {
				t.Fatalf("%s: cached path program image differs from Build's", path.name)
			}
		}
	})
}

// imageRequestSeed is TestImageRequestBitIdentical's image request.
func imageRequestSeed(f *testing.F) []byte {
	nb, err := Build(&SimRequest{Workload: "gcc", Iters: 30, Core: "braid", Width: 8}, Limits{})
	if err != nil {
		f.Fatal(err)
	}
	var img bytes.Buffer
	if err := isa.WriteImage(&img, nb.Program); err != nil {
		f.Fatal(err)
	}
	noBraid := false
	data, err := json.Marshal(SimRequest{
		Image:  base64.StdEncoding.EncodeToString(img.Bytes()),
		Config: &nb.Config,
		Braid:  &noBraid,
	})
	if err != nil {
		f.Fatal(err)
	}
	return data
}

func imageBytes(t *testing.T, p *isa.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := isa.WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
