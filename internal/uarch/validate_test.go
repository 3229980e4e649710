package uarch

import (
	"strings"
	"testing"
)

// TestValidateRejections table-tests Config.Validate: every mutation that
// turns a canonical machine into nonsense must be rejected, so the random
// search in internal/explore (and braidd request decoding, and braidsim
// -config replay) can lean on Validate as the single gate.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error
	}{
		{"zero fetch width", func(c *Config) { c.FetchWidth = 0 }, "bad widths"},
		{"negative issue width", func(c *Config) { c.IssueWidth = -4 }, "bad widths"},
		{"zero rob", func(c *Config) { c.ROB = 0 }, "bad widths"},
		{"zero fus", func(c *Config) { c.TotalFUs = 0 }, "bad widths"},
		{"zero fetch branches", func(c *Config) { c.FetchBranches = 0 }, "branch"},
		{"negative front depth", func(c *Config) { c.FrontDepth = -1; c.MispredictMin = 23 }, "front-end depth"},
		{"zero alloc width", func(c *Config) { c.AllocWidth = 0 }, "rename bandwidth"},
		{"zero rename src", func(c *Config) { c.RenameSrc = 0 }, "rename bandwidth"},
		{"negative retire width", func(c *Config) { c.RetireWidth = -1 }, "retire width"},
		{"zero rf entries", func(c *Config) { c.RFEntries = 0 }, "register file"},
		{"zero read ports", func(c *Config) { c.RFReadPorts = 0 }, "register file"},
		{"negative write ports", func(c *Config) { c.RFWritePorts = -2 }, "register file"},
		{"zero bypass levels", func(c *Config) { c.BypassLevels = 0 }, "bypass"},
		{"zero bypass values", func(c *Config) { c.BypassValues = 0 }, "bypass"},
		{"negative ext wakeup", func(c *Config) { c.ExtWakeupExtra = -1 }, "wakeup"},
		{"negative predictor entries", func(c *Config) { c.PredEntries = -512 }, "predictor"},
		{"negative history", func(c *Config) { c.PredHistory = -1 }, "predictor"},
		{"oversized history", func(c *Config) { c.PredHistory = 65 }, "predictor"},
		{"penalty below front depth", func(c *Config) { c.MispredictMin = 2 }, "misprediction penalty"},
		{"zero alu latency", func(c *Config) { c.LatIntALU = 0 }, "latencies"},
		{"negative div latency", func(c *Config) { c.LatFPDiv = -12 }, "latencies"},
		{"zero agu latency", func(c *Config) { c.LatAGU = 0 }, "latencies"},
		{"negative clusters", func(c *Config) { c.Clusters = -1 }, "clustering"},
		{"negative cluster delay", func(c *Config) { c.Clusters = 2; c.InterClusterDelay = -4 }, "clustering"},
		{"unknown core", func(c *Config) { c.Core = CoreKind(99) }, "core kind"},
		// Ceilings: each of these would make one run allocate gigabytes.
		{"64 GiB L2", func(c *Config) { c.Mem.L2.SizeKB = 1 << 26 }, "ceiling"},
		{"1-byte lines", func(c *Config) { c.Mem.L2.LineB = 1 }, "ceiling"},
		{"2^30 schedulers", func(c *Config) { c.Schedulers = 1 << 30 }, "ceiling"},
		{"2^30-entry perceptron", func(c *Config) { c.PredEntries = 1 << 30 }, "ceiling"},
		{"2^30-entry ROB", func(c *Config) { c.ROB = 1 << 30 }, "ceiling"},
		{"2^40-cycle memory", func(c *Config) { c.Mem.MemLatency = 1 << 40 }, "ceiling"},
		{"2^30-cycle divide", func(c *Config) { c.LatIntDiv = 1 << 30 }, "ceiling"},
		{"deep fetch buffer", func(c *Config) { c.FetchWidth, c.FrontDepth, c.MispredictMin = 256, 1000, 1002 }, "ceiling"},
		{"slow load path", func(c *Config) { c.LatAGU, c.Mem.L2.Latency, c.Mem.MemLatency = 1<<17, 1<<16, 1<<17 }, "ceiling"},
	}
	for _, tc := range cases {
		cfg := OutOfOrderConfig(8)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateCoreSpecific covers the per-paradigm structural checks.
func TestValidateCoreSpecific(t *testing.T) {
	ooo := OutOfOrderConfig(8)
	ooo.Schedulers = 0
	if err := ooo.Validate(); err == nil || !strings.Contains(err.Error(), "schedulers") {
		t.Errorf("scheduler-less out-of-order: %v", err)
	}

	dep := DepSteerConfig(8)
	dep.SteerFIFODeep = 0
	if err := dep.Validate(); err == nil || !strings.Contains(err.Error(), "FIFO") {
		t.Errorf("FIFO-less dep-steer: %v", err)
	}

	br := BraidConfig(8)
	br.BEUWindow = 0
	if err := br.Validate(); err == nil || !strings.Contains(err.Error(), "BEU") {
		t.Errorf("windowless braid: %v", err)
	}
	br = BraidConfig(8)
	br.Clusters = 3
	if err := br.Validate(); err == nil || !strings.Contains(err.Error(), "clusters") {
		t.Errorf("uneven clustering: %v", err)
	}
}

// TestValidateAcceptsCanonical: the four constructors must pass at the three
// widths the figures use, with and without explicit predictor geometry.
func TestValidateAcceptsCanonical(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16} {
		for _, cfg := range []Config{
			InOrderConfig(w), DepSteerConfig(w), OutOfOrderConfig(w), BraidConfig(w),
		} {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s/%d: %v", cfg.Core, w, err)
			}
		}
	}
	cfg := BraidConfig(8)
	cfg.PredEntries, cfg.PredHistory = 256, 32
	if err := cfg.Validate(); err != nil {
		t.Errorf("explicit predictor geometry rejected: %v", err)
	}
}

// TestPredictorGeometryDefaults: zero-valued geometry must behave exactly
// like the historical hardcoded 512/64 perceptron (golden-stat stability),
// and an explicit tiny predictor must change timing.
func TestPredictorGeometryDefaults(t *testing.T) {
	p, _ := genWorkload(t, "gcc", 40)
	base := OutOfOrderConfig(4)
	explicit := base
	explicit.PredEntries, explicit.PredHistory = 512, 64
	sb := simulate(t, p, base)
	se := simulate(t, p, explicit)
	if sb.Cycles != se.Cycles || sb.Mispredicts != se.Mispredicts {
		t.Errorf("explicit 512/64 diverged from default: %d/%d cycles, %d/%d mispredicts",
			sb.Cycles, se.Cycles, sb.Mispredicts, se.Mispredicts)
	}

	tiny := base
	tiny.PredEntries, tiny.PredHistory = 2, 1
	st := simulate(t, p, tiny)
	if st.Mispredicts <= sb.Mispredicts {
		t.Errorf("2-entry 1-bit perceptron (%d mispredicts) not worse than 512/64 (%d)",
			st.Mispredicts, sb.Mispredicts)
	}
}
