package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"braid/internal/asm"
	"braid/internal/braid"
	"braid/internal/isa"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// SimRequest is the body of POST /v1/simulate: one program source (BRD64
// assembly, a binary program image or its SHA-256, a named workload profile,
// or a built-in kernel) plus a machine configuration, either the core/width
// shorthand or a full uarch.Config.
type SimRequest struct {
	// Program source: exactly one of the five. Image carries the exact
	// bytes a remote client wants simulated (base64 .brd), bypassing
	// generation and calibration so distributed execution is bit-identical
	// to local runs. ImageSHA256 names such an image by the SHA-256 of its
	// bytes: braidd serves it from its program cache if an earlier image
	// request put it there, and otherwise answers 404 unknown_program,
	// building nothing.
	Asm         string `json:"asm,omitempty"`          // BRD64 assembly text
	Image       string `json:"image,omitempty"`        // base64 .brd binary program image
	ImageSHA256 string `json:"image_sha256,omitempty"` // hex SHA-256 of a .brd image (64 characters)
	Workload    string `json:"workload,omitempty"`     // named synthetic profile (e.g. "gcc")
	Kernel      string `json:"kernel,omitempty"`       // built-in kernel (e.g. "dot")
	Iters       int    `json:"iters,omitempty"`        // workload loop iterations (default 100)

	// Machine configuration shorthand, mirroring braidsim's flags.
	Core       string `json:"core,omitempty"`  // inorder, dep, braid, ooo (default ooo)
	Width      int    `json:"width,omitempty"` // issue width (default 8)
	PerfectBP  bool   `json:"perfect_bp,omitempty"`
	PerfectMem bool   `json:"perfect_mem,omitempty"`

	// Config, when set, is the complete machine configuration and overrides
	// the shorthand fields above.
	Config *uarch.Config `json:"config,omitempty"`

	// Braid forces the braid compiler on (true) or off (false) regardless
	// of the core; unset, the program is braided exactly when the core is
	// the braid core.
	Braid *bool `json:"braid,omitempty"`

	// MaxCycles caps the simulated cycle budget (bounded by the server's
	// ceiling); TimeoutMS caps the wall-clock simulation time (bounded by
	// the server's per-request deadline).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`

	// Sampling selects interval-sampled timing (period/detail/warmup);
	// absent runs exact. Sampled results live in a cache keyspace disjoint
	// from exact ones, so the same program+config never aliases across
	// modes.
	Sampling *uarch.Sampling `json:"sampling,omitempty"`
}

// Built is a fully resolved simulation: the program to run, the validated
// machine configuration, and the content hashes that key the result cache.
type Built struct {
	Program  *isa.Program
	Config   uarch.Config
	Braided  bool
	Sampling uarch.Sampling // zero: exact timing
	ProgHash string
	ConfHash string
	Timeout  time.Duration // request-level wall-clock bound (0: server default)

	half *programHalf // where Program and ProgHash came from
}

// programHalf is the part of a Built that depends only on the request's
// program source and braided flag: the program, braided if asked, and its
// image hash. braidd shares one among all requests naming the same source.
type programHalf struct {
	prog *isa.Program
	hash string
	// evicted is set once braidd's program cache has dropped this half and
	// released its replay state.
	evicted atomic.Bool
}

// Key is the result-cache and coalescing key: requests that resolve to the
// same program bytes and the same configuration are the same simulation.
// Sampled requests append their geometry, so sampled estimates and exact
// results never share an entry — and exact keys are unchanged from before
// sampling existed.
func (b *Built) Key() string {
	key := b.ProgHash + ":" + b.ConfHash
	if b.Sampling.Enabled() {
		key += ":s" + b.Sampling.String()
	}
	return key
}

// Limits bound what a single request may ask of the machine; the zero value
// applies the package defaults.
type Limits struct {
	MaxCycles  uint64        // ceiling on a request's simulated cycles
	MaxSimTime time.Duration // ceiling on a request's wall-clock simulation time
}

const (
	defaultMaxCycles  = 50_000_000
	defaultMaxSimTime = 30 * time.Second
	defaultIters      = 100
)

// Build resolves a request into a runnable simulation: load or generate the
// program, braid it if asked (or implied by the braid core), resolve and
// validate the configuration, clamp it to the limits, and hash both halves.
// Errors are client errors (bad input), except compile faults, which carry
// *CompileFault, and a well-formed image_sha256 source, which fails with
// errUnknownProgram: Build holds no images. Build makes the program afresh
// on every call; braidd takes it from its program cache instead
// (Server.build).
func Build(req *SimRequest, lim Limits) (*Built, error) {
	return build(req, lim, newProgramHalf)
}

// build is Build with the program half made by program, from the request
// and its resolved braided flag.
func build(req *SimRequest, lim Limits, program func(req *SimRequest, braided bool) (*programHalf, error)) (*Built, error) {
	if lim.MaxCycles == 0 {
		lim.MaxCycles = defaultMaxCycles
	}
	if lim.MaxSimTime == 0 {
		lim.MaxSimTime = defaultMaxSimTime
	}
	sources := 0
	for _, set := range []bool{req.Asm != "", req.Image != "", req.ImageSHA256 != "", req.Workload != "", req.Kernel != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("request needs exactly one of asm, image, image_sha256, workload, kernel (got %d)", sources)
	}
	cfg, err := buildConfig(req)
	if err != nil {
		return nil, err
	}
	braided := cfg.Core == uarch.CoreBraid
	if req.Braid != nil {
		braided = *req.Braid
	}
	half, err := program(req, braided)
	if err != nil {
		return nil, err
	}

	if cfg.MaxCycles == 0 || cfg.MaxCycles > lim.MaxCycles {
		cfg.MaxCycles = lim.MaxCycles
	}
	if req.MaxCycles > 0 && req.MaxCycles < cfg.MaxCycles {
		cfg.MaxCycles = req.MaxCycles
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}

	var timeout time.Duration
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout <= 0 || timeout > lim.MaxSimTime {
		timeout = lim.MaxSimTime
	}

	b := &Built{
		Program: half.prog, Config: cfg, Braided: braided, Timeout: timeout,
		ProgHash: half.hash, half: half,
	}
	if req.Sampling != nil {
		if err := req.Sampling.Validate(); err != nil {
			return nil, err
		}
		b.Sampling = *req.Sampling
	}
	if b.ConfHash, err = hashConfig(&cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// newProgramHalf loads or generates the request's program, braids it when
// braided is set and it carries no braid bits yet, and hashes its image.
func newProgramHalf(req *SimRequest, braided bool) (*programHalf, error) {
	p, err := loadProgram(req)
	if err != nil {
		return nil, err
	}
	if braided && !p.Braided() {
		res, err := compileBraid(p)
		if err != nil {
			return nil, err
		}
		p = res.Prog
	}
	_, hash, err := isa.EncodeImage(p)
	if err != nil {
		return nil, fmt.Errorf("hashing program: %w", err)
	}
	return &programHalf{prog: p, hash: hash}, nil
}

// errUnknownProgram answers a well-formed image_sha256 source whose image
// the server does not hold; the client resends the point with the image.
var errUnknownProgram = errors.New("image_sha256: no such image here; send the image itself")

// loadProgram parses, decodes or generates the program of a request that
// names exactly one source. A hash source has no program to load.
func loadProgram(req *SimRequest) (*isa.Program, error) {
	switch {
	case req.Asm != "":
		p, err := asm.Parse(req.Asm)
		if err != nil {
			return nil, fmt.Errorf("asm: %w", err)
		}
		return p, nil
	case req.Image != "":
		raw, err := decodeImage(req.Image)
		if err != nil {
			return nil, err
		}
		p, err := isa.ReadImage(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("image: %w", err)
		}
		return p, nil
	case req.ImageSHA256 != "":
		if _, err := imageDigest(req.ImageSHA256); err != nil {
			return nil, err
		}
		return nil, errUnknownProgram
	case req.Workload != "":
		prof, ok := workload.ProfileByName(req.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", req.Workload)
		}
		iters := workloadIters(req)
		if iters > isa.ImmMax {
			return nil, fmt.Errorf("iters %d above the ISA limit %d", iters, isa.ImmMax)
		}
		p, err := workload.Generate(prof, iters)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", req.Workload, err)
		}
		return p, nil
	default:
		p, ok := workload.KernelByName(req.Kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", req.Kernel)
		}
		return p, nil
	}
}

// decodeImage decodes an image source's base64 text.
func decodeImage(s string) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	return raw, nil
}

// imageDigest parses an image_sha256 source: exactly 64 hex characters.
func imageDigest(s string) ([sha256.Size]byte, error) {
	var d [sha256.Size]byte
	if len(s) != hex.EncodedLen(sha256.Size) {
		return d, fmt.Errorf("image_sha256: want %d hex characters, got %d", hex.EncodedLen(sha256.Size), len(s))
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return d, fmt.Errorf("image_sha256: %w", err)
	}
	return d, nil
}

// workloadIters is a workload request's loop count, defaulted.
func workloadIters(req *SimRequest) int {
	if req.Iters <= 0 {
		return defaultIters
	}
	return req.Iters
}

func buildConfig(req *SimRequest) (uarch.Config, error) {
	if req.Config != nil {
		return *req.Config, nil
	}
	width := req.Width
	if width <= 0 {
		width = 8
	}
	var cfg uarch.Config
	switch req.Core {
	case "", "ooo":
		cfg = uarch.OutOfOrderConfig(width)
	case "inorder":
		cfg = uarch.InOrderConfig(width)
	case "dep":
		cfg = uarch.DepSteerConfig(width)
	case "braid":
		cfg = uarch.BraidConfig(width)
	default:
		return uarch.Config{}, fmt.Errorf("unknown core %q (want inorder, dep, braid, ooo)", req.Core)
	}
	cfg.PerfectBP = req.PerfectBP
	cfg.Mem.Perfect = req.PerfectMem
	return cfg, nil
}

// CompileFault is a contained braid-compiler panic: the input program drove
// the compiler into a bug, reported as a structured 422 rather than a dead
// process.
type CompileFault struct{ Panic any }

func (f *CompileFault) Error() string { return fmt.Sprintf("braid compiler fault: %v", f.Panic) }

func compileBraid(p *isa.Program) (res *braid.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CompileFault{Panic: r}
		}
	}()
	res, err = braid.Compile(p, braid.Options{})
	if err != nil {
		err = fmt.Errorf("braid compile: %w", err)
	}
	return res, err
}

func hashConfig(cfg *uarch.Config) (string, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("hashing config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
