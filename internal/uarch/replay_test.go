package uarch

import (
	"sync"
	"testing"

	"braid/internal/isa"
	"braid/internal/workload"
)

func generated(t *testing.T, name string, iters int) *isa.Program {
	t.Helper()
	prof, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	p, err := workload.Generate(prof, iters)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cachedReplay(p *isa.Program) bool {
	replayCache.Lock()
	defer replayCache.Unlock()
	_, ok := replayCache.m[p]
	return ok
}

// TestReleaseProgramRebuildsIdentically: releasing a program drops its replay
// state, and the next simulation rebuilds it to the same Stats.
func TestReleaseProgramRebuildsIdentically(t *testing.T) {
	p := generated(t, "gcc", 40)
	cfg := OutOfOrderConfig(8)
	want, err := Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cachedReplay(p) {
		t.Fatal("simulation cached no replay state")
	}
	ReleaseProgram(p)
	if cachedReplay(p) {
		t.Fatal("ReleaseProgram kept the replay state")
	}
	got, err := Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("Stats after release differ:\n got %+v\nwant %+v", got, want)
	}
	ReleaseProgram(p)
}

// TestConcurrentColdReplayBuilds simulates two programs at once from cold,
// two Machines per program, so trace and metadata builds of both run
// concurrently (run with -race). Each result must equal the serial one.
func TestConcurrentColdReplayBuilds(t *testing.T) {
	progs := []*isa.Program{generated(t, "mcf", 40), generated(t, "equake", 40)}
	cfgs := []Config{OutOfOrderConfig(8), InOrderConfig(4)}
	want := make([][]*Stats, len(progs))
	for i, p := range progs {
		for _, cfg := range cfgs {
			st, err := Simulate(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], st)
		}
		ReleaseProgram(p)
	}

	got := make([][]*Stats, len(progs))
	errs := make(chan error, len(progs)*len(cfgs))
	var wg sync.WaitGroup
	for i, p := range progs {
		got[i] = make([]*Stats, len(cfgs))
		for j, cfg := range cfgs {
			wg.Add(1)
			go func(i, j int, p *isa.Program, cfg Config) {
				defer wg.Done()
				st, err := Simulate(p, cfg)
				if err != nil {
					errs <- err
					return
				}
				got[i][j] = st
			}(i, j, p, cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, p := range progs {
		for j := range cfgs {
			if *got[i][j] != *want[i][j] {
				t.Errorf("%s config %d: concurrent cold Stats differ from serial:\n got %+v\nwant %+v",
					p.Name, j, got[i][j], want[i][j])
			}
		}
		ReleaseProgram(p)
	}
}
