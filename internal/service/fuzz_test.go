package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
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
//
// An image_sha256 source resolves only from a program cache. Build must
// answer it with unknown_program, or with a 400 for bad input, and so must a
// fresh server. The shared server may resolve a digest only after it built
// that image, and then must agree with Build run on the image itself.
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
		// Hash sources: unknown, malformed hex, wrong length.
		`{"image_sha256":"` + strings.Repeat("0", 64) + `"}`,
		`{"image_sha256":"` + strings.Repeat("zz", 32) + `"}`,
		`{"image_sha256":"abcd","core":"inorder"}`,
	} {
		f.Add([]byte(seed))
	}
	for _, seed := range oversizedConfigs() { // TestOversizedConfigsRejected
		f.Add([]byte(seed))
	}
	asmReq, err := json.Marshal(SimRequest{Asm: countdownAsm(5), Core: "braid", Width: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(asmReq)
	imgReq := imageRequestSeed(f)
	f.Add(imgReq) // before its digest, so the shared server holds the image
	var byHash, both SimRequest
	if err := json.Unmarshal(imgReq, &byHash); err != nil {
		f.Fatal(err)
	}
	raw, err := decodeImage(byHash.Image)
	if err != nil {
		f.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	both = byHash
	byHash.Image, byHash.ImageSHA256 = "", hex.EncodeToString(sum[:])
	both.ImageSHA256 = byHash.ImageSHA256
	for _, req := range []SimRequest{byHash, both} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	shared := New(Config{})
	var mu sync.Mutex
	images := map[[sha256.Size]byte]string{} // digest -> image source shared has built
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimRequest
		if decodeJSON(bytes.NewReader(data), &req) != nil {
			return
		}
		want, wantErr := Build(&req, Limits{})
		if req.ImageSHA256 != "" {
			fuzzHashSource(t, &req, wantErr, shared, &mu, images)
			return
		}
		svc := New(Config{})
		for _, path := range []struct {
			name string
			s    *Server
		}{{"cold", svc}, {"warm", svc}, {"shared", shared}} {
			got, err := path.s.build(&req)
			sameBuild(t, path.name, got, err, want, wantErr)
			if err == nil && path.s == shared && req.Image != "" {
				raw, _ := decodeImage(req.Image)
				mu.Lock()
				images[sha256.Sum256(raw)] = req.Image
				mu.Unlock()
			}
		}
	})
}

// fuzzHashSource checks one image_sha256 request: Build and a fresh server
// cannot resolve it, and the shared server resolves it only to what Build
// makes of the image it was built from.
func fuzzHashSource(t *testing.T, req *SimRequest, wantErr error, shared *Server, mu *sync.Mutex, images map[[sha256.Size]byte]string) {
	if wantErr == nil {
		t.Fatal("Build resolved an image_sha256 source")
	}
	status, body := buildErrorBody(wantErr)
	unknown := status == http.StatusNotFound && body.Kind == "unknown_program"
	if !unknown && (status != http.StatusBadRequest || body.Kind != "bad_request") {
		t.Fatalf("Build fails an image_sha256 source with %d %s (%v), want 404 unknown_program or 400", status, body.Kind, wantErr)
	}
	svc := New(Config{})
	got, err := svc.build(req)
	sameBuild(t, "fresh", got, err, nil, wantErr)
	if n := svc.met.unknownProgram.Value(); (n == 1) != unknown {
		t.Fatalf("fresh: unknown_program_total = %d after a %d answer", n, status)
	}

	got, err = shared.build(req)
	if !unknown || errors.Is(err, errUnknownProgram) {
		sameBuild(t, "shared", got, err, nil, wantErr)
		return
	}
	digest, derr := imageDigest(req.ImageSHA256)
	mu.Lock()
	image, ok := images[digest]
	mu.Unlock()
	if derr != nil || !ok {
		t.Fatalf("shared: digest %s resolved (error %v) before its image was built", req.ImageSHA256, err)
	}
	sub := *req
	sub.ImageSHA256, sub.Image = "", image
	want, wantErr := Build(&sub, Limits{})
	sameBuild(t, "shared", got, err, want, wantErr)
}

// sameBuild fails t unless got/err matches want/wantErr: the same error
// class, or the same key, hashes, braided flag, deadline and image bytes.
func sameBuild(t *testing.T, name string, got *Built, err error, want *Built, wantErr error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: Build error %v, cached path error %v", name, wantErr, err)
	}
	if err != nil {
		ws, wb := buildErrorBody(wantErr)
		gs, gb := buildErrorBody(err)
		if ws != gs || wb.Kind != gb.Kind {
			t.Fatalf("%s: Build fails %d %s (%v), cached path %d %s (%v)",
				name, ws, wb.Kind, wantErr, gs, gb.Kind, err)
		}
		return
	}
	if got.Key() != want.Key() || got.ProgHash != want.ProgHash || got.ConfHash != want.ConfHash ||
		got.Braided != want.Braided || got.Timeout != want.Timeout {
		t.Fatalf("%s: cached path built key %s braided %v timeout %v, Build key %s braided %v timeout %v",
			name, got.Key(), got.Braided, got.Timeout, want.Key(), want.Braided, want.Timeout)
	}
	if !bytes.Equal(imageBytes(t, got.Program), imageBytes(t, want.Program)) {
		t.Fatalf("%s: cached path program image differs from Build's", name)
	}
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
