package uarch

import (
	"testing"

	"braid/internal/braid"
	"braid/internal/workload"
)

func TestClusteringCostsPerformance(t *testing.T) {
	prof, _ := workload.ProfileByName("vortex")
	p, err := workload.Generate(prof, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Simulate(res.Prog, BraidConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	clustered := BraidConfig(8)
	clustered.Clusters = 4
	clustered.InterClusterDelay = 8
	sc, err := Simulate(res.Prog, clustered)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flat %.3f, 4 clusters +8 cycles %.3f", flat.IPC(), sc.IPC())
	if sc.IPC() > flat.IPC() {
		t.Errorf("clustering with an 8-cycle penalty improved IPC: %.3f > %.3f", sc.IPC(), flat.IPC())
	}
	if sc.IPC() < 0.5*flat.IPC() {
		t.Errorf("clustering collapsed performance (%.3f vs %.3f); braids should tolerate it", sc.IPC(), flat.IPC())
	}
	if sc.Retired != flat.Retired {
		t.Errorf("clustering changed the retired count")
	}
}

func TestClusterValidation(t *testing.T) {
	cfg := BraidConfig(8)
	cfg.Clusters = 3 // 8 BEUs don't divide into 3
	if err := cfg.Validate(); err == nil {
		t.Error("uneven clustering accepted")
	}
	cfg.Clusters = 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("even clustering rejected: %v", err)
	}
}

func TestDeadValueReleaseShrinksOccupancy(t *testing.T) {
	prof, _ := workload.ProfileByName("swim")
	p, err := workload.Generate(prof, 150)
	if err != nil {
		t.Fatal(err)
	}
	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	with := BraidConfig(8)
	without := BraidConfig(8)
	without.DeadValueRelease = false
	sw, err := Simulate(res.Prog, with)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Simulate(res.Prog, without)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with release: IPC %.3f, stalls %d; without: IPC %.3f, stalls %d",
		sw.IPC(), sw.RFEntryStalls, so.IPC(), so.RFEntryStalls)
	if so.RFEntryStalls <= sw.RFEntryStalls {
		t.Errorf("disabling dead-value release did not increase RF stalls (%d vs %d)",
			so.RFEntryStalls, sw.RFEntryStalls)
	}
	if sw.IPC() < so.IPC() {
		t.Errorf("dead-value release hurt IPC: %.3f < %.3f", sw.IPC(), so.IPC())
	}
}
