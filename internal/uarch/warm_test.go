package uarch

import (
	"fmt"
	"reflect"
	"testing"

	"braid/internal/isa"
	"braid/internal/mem"
)

// replayedWarmup warms a cold hierarchy of cfg for p by replaying both
// sweeps access by access.
func replayedWarmup(t *testing.T, p *isa.Program, cfg mem.Config) *mem.Hierarchy {
	t.Helper()
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(p.Instrs); i += 8 {
		h.AccessI(instrAddr(i))
	}
	for off := uint64(0); off < dataSweepBytes; off += 64 {
		h.AccessD(isa.DataBase + off)
	}
	return h
}

// textOf returns a program of n instructions: the warm-up reads only the
// length of its text.
func textOf(n int) *isa.Program {
	return &isa.Program{Name: fmt.Sprintf("text%d", n), Instrs: make([]isa.Instruction, n)}
}

// resetWarmCache drops every warm part.
func resetWarmCache() {
	warmCache.Lock()
	warmCache.configs, warmCache.order, warmCache.bytes = nil, nil, 0
	warmCache.Unlock()
}

// hierBytes is the size of the cache arrays of a hierarchy of cfg.
func hierBytes(cfg mem.Config) int {
	n := 0
	for _, c := range []mem.CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		n += 17 * (c.SizeKB * 1024 / c.LineB) // a tag, a stamp and a valid bit per line
	}
	return n
}

// TestWarmHierarchyExact: the composed warm hierarchy equals the replayed
// warm-up byte for byte at all three levels (tags, valid bits, stamps,
// ticks and counters) across geometries where text lines survive the data
// sweep in the L2 or not, line sizes that differ between levels, and text
// lengths from one instruction to past the start of the data space. Each
// composition reuses the last one's arrays, of whatever geometry.
func TestWarmHierarchyExact(t *testing.T) {
	table4 := mem.DefaultConfig()
	bigL2 := table4
	bigL2.L2 = mem.CacheConfig{SizeKB: 2048, Assoc: 16, LineB: 64, Latency: 6}
	wideL2 := table4
	wideL2.L2 = mem.CacheConfig{SizeKB: 4096, Assoc: 8, LineB: 128, Latency: 6}
	narrowL1I := table4
	narrowL1I.L1I.LineB = 32
	narrowL1I.L2 = mem.CacheConfig{SizeKB: 256, Assoc: 2, LineB: 64, Latency: 6}
	mixedLines := table4
	mixedLines.L1I.LineB = 128
	mixedLines.L1D.LineB = 32
	perfect := table4
	perfect.Perfect = true
	var spare *mem.Hierarchy
	for _, c := range []struct {
		name string
		cfg  mem.Config
	}{
		{"table4", table4}, {"2MiB 16-way L2", bigL2}, {"4MiB 128-B-line L2", wideL2},
		{"32-B-line L1I, 256KiB 2-way L2", narrowL1I}, {"128-B-line L1I, 32-B-line L1D", mixedLines},
		{"perfect", perfect},
	} {
		for _, n := range []int{1, 7, 8, 9, 127, 500, 2000, 8192, 70000} {
			p := textOf(n)
			got, err := warmHierarchy(p, c.cfg, spare)
			if err != nil {
				t.Fatal(err)
			}
			if want := replayedWarmup(t, p, c.cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d instructions: the composed hierarchy differs from the replayed warm-up\n got  %s\n want %s",
					c.name, n, hierCounters(got.Stats()), hierCounters(want.Stats()))
			}
			spare = got
		}
	}
}

// TestWarmDataOncePerConfig: the data sweep runs once per memory
// configuration while the 21 text lengths of the suite's programs (12 line
// counts) warm on it. At Table 4's geometry the lot holds at most two
// hierarchies' worth of bytes; at Perfect it holds none.
func TestWarmDataOncePerConfig(t *testing.T) {
	resetWarmCache()
	defer resetWarmCache()
	lengths := []int{84, 104, 119, 123, 124, 125, 127, 129, 130, 131, 134, 135, 137, 138, 145, 147, 154, 162, 169, 182, 277}
	lines := map[int]bool{}
	for _, n := range lengths {
		lines[(n+7)/8] = true
	}
	table4 := mem.DefaultConfig()
	perfect := table4
	perfect.Perfect = true
	var held [2]int
	for i, cfg := range []mem.Config{table4, perfect} {
		var data *mem.DataWarm
		for _, n := range lengths {
			if _, err := warmHierarchy(textOf(n), cfg, nil); err != nil {
				t.Fatal(err)
			}
			warmCache.Lock()
			c := warmCache.configs[cfg]
			warmCache.Unlock()
			if data == nil {
				data = c.data
			} else if c.data != data {
				t.Fatalf("perfect=%v: %d instructions swept the data side again", cfg.Perfect, n)
			}
		}
		warmCache.Lock()
		texts := len(warmCache.configs[cfg].texts)
		held[i] = warmCache.bytes
		warmCache.Unlock()
		if texts != len(lines) {
			t.Errorf("perfect=%v: %d text parts held, want one per line count, %d", cfg.Perfect, texts, len(lines))
		}
	}
	if limit := 2 * hierBytes(table4); held[0] > limit {
		t.Errorf("Table 4: %d text lengths hold %d bytes, over two hierarchies' %d", len(lengths), held[0], limit)
	}
	if held[1] != held[0] {
		t.Errorf("Perfect: %d text lengths hold %d bytes, want 0", len(lengths), held[1]-held[0])
	}
	t.Logf("Table 4: %d text lengths hold %d bytes; one hierarchy has %d", len(lengths), held[0], hierBytes(table4))
}

// TestWarmPrototypesBounded: the warm parts stay within maxWarmBytes,
// the oldest text part dropped first and a configuration's data part with
// its last one, and a dropped key warms again to the same state.
func TestWarmPrototypesBounded(t *testing.T) {
	resetWarmCache()
	defer resetWarmCache()
	big := func(ways int) mem.Config {
		cfg := mem.DefaultConfig()
		cfg.L2.SizeKB, cfg.L2.Assoc = mem.MaxCacheKB, ways // ~4.4 MB of data part
		return cfg
	}
	var keys []warmKey // in warming order
	warm := func(cfg mem.Config, n int) *mem.Hierarchy {
		t.Helper()
		h, err := warmHierarchy(textOf(n), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, warmKey{cfg: cfg, lines: (n + 7) / 8})
		return h
	}
	first := warm(big(1), 1)
	warm(big(2), 1)
	warm(big(1), 9) // the first configuration's data part outlives its first text part
	warmCache.Lock()
	perConfig := warmCache.bytes / 2
	warmCache.Unlock()
	for ways := 4; len(keys) < maxWarmBytes/perConfig+3; ways *= 2 {
		warm(big(ways), 1)
	}

	warmCache.Lock()
	held := append([]warmKey(nil), warmCache.order...)
	bytes, sum, configs := warmCache.bytes, 0, len(warmCache.configs)
	for _, c := range warmCache.configs {
		sum += c.data.Bytes()
		for _, text := range c.texts {
			sum += text.Bytes()
		}
	}
	heldConfigs := map[mem.Config]bool{}
	for _, k := range held {
		heldConfigs[k.cfg] = true
		if c := warmCache.configs[k.cfg]; c == nil || c.texts[k.lines] == nil {
			t.Errorf("%v is in the order but not held", k)
		}
	}
	warmCache.Unlock()
	if bytes > maxWarmBytes || bytes != sum {
		t.Errorf("the warm parts hold %d bytes (counted %d), want at most %d", sum, bytes, maxWarmBytes)
	}
	if len(held) == len(keys) || !reflect.DeepEqual(held, keys[len(keys)-len(held):]) {
		t.Errorf("held %d of %d text parts; want the newest, and not all", len(held), len(keys))
	}
	if configs != len(heldConfigs) {
		t.Errorf("%d configurations held for the text parts of %d", configs, len(heldConfigs))
	}
	if again := warm(big(1), 1); !reflect.DeepEqual(again, first) {
		t.Errorf("a dropped key came back as %s, want %s", hierCounters(again.Stats()), hierCounters(first.Stats()))
	}
}
