package uarch_test

import (
	"math/bits"
	"testing"

	"braid/internal/bpred"
	"braid/internal/braid"
	"braid/internal/explore"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// TestMispredictSetsMatchPerceptron: a program's shared mispredict set for a
// geometry is exactly what a fresh perceptron of that geometry mispredicts
// when it predicts, then trains, every conditional branch in trace order —
// for the default geometry and every geometry of braidtune's lattice. Under
// PerfectBP there is no set and no mispredict.
func TestMispredictSetsMatchPerceptron(t *testing.T) {
	var progs []*isa.Program
	for _, name := range []string{"gcc", "mcf", "equake", "twolf"} {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		p, err := workload.Generate(prof, 30)
		if err != nil {
			t.Fatal(err)
		}
		res, err := braid.Compile(p, braid.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p, res.Prog)
	}
	progs = append(progs, workload.Kernels()...)

	geoms := [][2]int{{0, 0}} // the default: 512 entries, 64 history bits
	for _, e := range explore.PredEntries {
		for _, h := range explore.PredHistories {
			geoms = append(geoms, [2]int{e, h})
		}
	}
	for _, p := range progs {
		for _, g := range geoms {
			cfg := uarch.OutOfOrderConfig(8)
			cfg.PredEntries, cfg.PredHistory = g[0], g[1]
			got, count := uarch.MispredictSet(p, cfg)

			entries, hist := g[0], g[1]
			if entries == 0 {
				entries, hist = 512, 64
			}
			pred := bpred.NewPerceptron(entries, hist)
			im := interp.New(p)
			var (
				info          interp.StepInfo
				br            int
				wrong, mapped uint64
			)
			for im.Step(&info) == nil {
				if !info.Instr.IsCondBranch() {
					continue
				}
				addr := uarch.InstrAddr(info.Index)
				miss := pred.Predict(addr) != info.Taken
				pred.Train(addr, info.Taken)
				if bit := got[br/64]>>(br%64)&1 != 0; bit != miss {
					t.Fatalf("%s geometry %v: branch %d (pc %d) set says mispredicted=%v, perceptron %v",
						p.Name, g, br, info.Index, bit, miss)
				}
				if miss {
					wrong++
				}
				br++
			}
			wantLen := (br + 63) / 64
			for _, w := range got {
				mapped += uint64(bits.OnesCount64(w))
			}
			if len(got) != wantLen || count != wrong || mapped != wrong {
				t.Errorf("%s geometry %v: set of %d words with %d bits, count %d; want %d words, %d mispredicts",
					p.Name, g, len(got), mapped, count, wantLen, wrong)
			}
		}
		perfect := uarch.OutOfOrderConfig(8)
		perfect.PerfectBP = true
		if got, count := uarch.MispredictSet(p, perfect); got != nil || count != 0 {
			t.Errorf("%s PerfectBP: set of %d words, count %d; want none", p.Name, len(got), count)
		}
		st, err := uarch.Simulate(p, perfect)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mispredicts != 0 {
			t.Errorf("%s PerfectBP: %d mispredicts", p.Name, st.Mispredicts)
		}
		uarch.ReleaseProgram(p)
	}
}
