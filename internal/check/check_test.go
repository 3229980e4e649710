package check

import (
	"context"
	"testing"

	"braid/internal/isa"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// TestKernelsCheckClean runs the full differential and metamorphic battery
// over every curated kernel: zero findings expected. This is the harness's
// own tier-1 anchor — if an engine change breaks retirement order, branch
// outcomes, memory addressing, count accounting, or braid equivalence on
// any paradigm, this test names the first diverging instruction.
func TestKernelsCheckClean(t *testing.T) {
	opts := Options{Sampled: !testing.Short()}
	for _, p := range workload.Kernels() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, f := range Program(context.Background(), p.Name, p, opts) {
				t.Errorf("%s", f.String())
			}
		})
	}
}

// TestRandomProgramsCheckClean pushes the adversarial random corpus
// through the lockstep oracle on every paradigm.
func TestRandomProgramsCheckClean(t *testing.T) {
	n := int64(30)
	if testing.Short() {
		n = 6
	}
	opts := Options{Widths: []int{4}}
	for seed := int64(0); seed < n; seed++ {
		p := workload.RandomProgram(seed)
		for _, f := range Program(context.Background(), p.Name, p, opts) {
			t.Errorf("seed %d: %s", seed, f.String())
		}
	}
}

// TestLockstepDetectsDivergence proves the oracle actually fires: an
// engine running one program against a reference stream for a different
// program must produce a lockstep finding, not silence. The tampered
// program differs in a single store offset — the minimal architectural
// divergence the checker claims to catch.
func TestLockstepDetectsDivergence(t *testing.T) {
	p, ok := workload.KernelByName("dot")
	if !ok {
		t.Fatal("dot kernel missing")
	}
	tampered := p.Clone()
	found := false
	for i := range tampered.Instrs {
		in := &tampered.Instrs[i]
		if in.IsStore() {
			in.Imm += 8 // shift one store's address
			found = true
			break
		}
	}
	if !found {
		t.Fatal("dot kernel has no store to tamper with")
	}
	f := lockstepPair(context.Background(), "tampered-dot", tampered, p, uarch.OutOfOrderConfig(4), 3_000_000)
	if f == nil {
		t.Fatal("lockstep oracle failed to flag a tampered store address")
	}
	if f.Kind != "lockstep" {
		t.Fatalf("expected a lockstep finding, got %s", f.String())
	}
	t.Logf("oracle fired as expected: %s", f.String())
}

// lockstepPair is the test seam for divergence detection: the engine runs
// engineProg while the reference interpreter follows refProg. Production
// code always passes the same program twice (via Lockstep).
func lockstepPair(ctx context.Context, name string, engineProg, refProg *isa.Program, cfg uarch.Config, maxSteps uint64) *Finding {
	ls, observe := newLockstep(name, refProg, cfg, maxSteps)
	if _, err := uarch.SimulateObserved(ctx, engineProg, cfg, observe); err != nil {
		return &Finding{Kind: "error", Program: name, Detail: err.Error()}
	}
	if ls.f != nil {
		return ls.f
	}
	if !ls.st.Done() {
		return &Finding{Kind: "lockstep", Program: name, Detail: "reference stream not exhausted"}
	}
	return nil
}

// TestRandomAliasRegressions pins the seeds whose programs the first full
// random sweep miscompiled: RandomProgram used to roll alias class and
// address independently, so two stores to the same byte could carry
// distinct nonzero classes — an unsound "provably disjoint" promise the
// braid compiler is entitled to act on (it swapped two same-address stq,
// changing final memory; shrunk to 6 instructions). The generator now
// couples class to a disjoint address partition; these exact seeds must
// check clean, and so must the alias-soundness scan on a larger sample.
func TestRandomAliasRegressions(t *testing.T) {
	for _, seed := range []int64{49, 505, 585} {
		p := workload.RandomProgram(seed)
		for _, f := range Program(context.Background(), p.Name, p, Options{Widths: []int{4}}) {
			t.Errorf("seed %d: %s", seed, f.String())
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		ex, err := observe(workload.RandomProgram(seed), 3_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ex.aliasConflict != "" {
			t.Errorf("seed %d: generator emitted unsound alias classes: %s", seed, ex.aliasConflict)
		}
	}
}

// TestAliasUnsoundDetected proves the alias-soundness oracle fires: a
// program whose two same-address stores carry distinct nonzero classes is
// reported as an "alias" finding (root cause), not as the downstream
// equivalence divergence it licenses.
func TestAliasUnsoundDetected(t *testing.T) {
	p := &isa.Program{Name: "alias-unsound"}
	p.Instrs = []isa.Instruction{
		{Op: isa.OpLDIMM, Dest: isa.Reg(1), Imm: 7, HasImm: true},
		{Op: isa.OpSTQ, Src1: isa.Reg(1), Src2: isa.RegZero, Imm: 0x40, AliasClass: 1},
		{Op: isa.OpSTQ, Src1: isa.RegZero, Src2: isa.RegZero, Imm: 0x40, AliasClass: 2},
		{Op: isa.OpHALT},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	f := Equivalence("alias-unsound", p, p, 1000)
	if f == nil {
		t.Fatal("alias-soundness oracle failed to flag conflicting classes")
	}
	if f.Kind != "alias" {
		t.Fatalf("expected an alias finding, got %s", f.String())
	}
	t.Logf("oracle fired as expected: %s", f.String())
}

// TestEquivalenceDetectsDivergence checks the compiler-equivalence oracle
// fires on a semantic change: flipping a store offset must surface as a
// store-stream divergence.
func TestEquivalenceDetectsDivergence(t *testing.T) {
	p, ok := workload.KernelByName("copy")
	if !ok {
		t.Fatal("copy kernel missing")
	}
	tampered := p.Clone()
	for i := range tampered.Instrs {
		in := &tampered.Instrs[i]
		if in.IsStore() {
			in.Imm += 16
			break
		}
	}
	if f := Equivalence("tampered-copy", p, tampered, 3_000_000); f == nil {
		t.Fatal("equivalence oracle failed to flag a tampered store")
	}
}
