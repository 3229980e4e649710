package uarch

import (
	"sync"

	"braid/internal/isa"
	"braid/internal/mem"
)

// Cache warm-up. Before a run the hierarchy is warmed to steady state: the
// paper measures whole MinneSPEC runs where cold misses are negligible, and
// our runs are short enough that they would otherwise dominate. The
// instruction side fetches every 64-byte line of the text segment; the data
// side then pre-touches the first megabyte of the data space, so only
// footprints larger than the L2 (the genuinely memory-bound benchmarks) keep
// missing to memory. The data sweep, 16 Ki accesses, depends on the memory
// configuration alone, so it runs once per configuration (mem.DataWarm).
// What the text adds depends on its line count alone and takes O(text
// lines) to hold (mem.TextWarm). Each run composes its
// hierarchy from the two: byte for byte the state, stamps and counters
// included, that replaying both sweeps gives.

// dataSweepBytes is the span of data space the warm-up touches.
const dataSweepBytes = 1 << 20

// warmKey names one text part: the memory configuration and the text's line
// count.
type warmKey struct {
	cfg   mem.Config
	lines int
}

// warmConfig is the warm state of one memory configuration.
type warmConfig struct {
	data  *mem.DataWarm
	texts map[int]*mem.TextWarm // by text lines
}

// maxWarmBytes bounds the bytes the warm state holds. At Table 4's geometry
// a configuration's data part takes ~417 KiB and a suite program's text part
// 2–8 KiB; a whole braidbench suite warms two configurations (one of them
// Perfect, which holds nothing), each with the 12 line counts of its 21
// text lengths: 466 KiB in all. Past the bound the oldest text parts are
// dropped, and a configuration's data part with its last one; a later run
// on a dropped key warms it again, with the same result.
const maxWarmBytes = 32 << 20

var warmCache struct {
	sync.Mutex
	configs map[mem.Config]*warmConfig
	order   []warmKey // text parts in insertion order, oldest first
	bytes   int       // Bytes summed over the data and text parts
}

// warmHierarchy returns a pre-warmed hierarchy for the program and
// configuration, composed in spare's arrays where their geometry matches
// (spare may be nil).
func warmHierarchy(p *isa.Program, cfg mem.Config, spare *mem.Hierarchy) (*mem.Hierarchy, error) {
	lines := (len(p.Instrs)*8 + mem.SweepStride - 1) / mem.SweepStride // 8 bytes per instruction (instrAddr)
	data, text, err := warmParts(warmKey{cfg: cfg, lines: lines})
	if err != nil {
		return nil, err
	}
	// Parts are never written once stored, so composing needs no lock.
	return data.Compose(text, spare), nil
}

// warmParts returns the key's data and text parts, making and storing each
// on first use.
func warmParts(key warmKey) (*mem.DataWarm, *mem.TextWarm, error) {
	warmCache.Lock()
	defer warmCache.Unlock()
	c := warmCache.configs[key.cfg]
	if c == nil {
		data, err := mem.NewDataWarm(key.cfg, isa.DataBase, dataSweepBytes/mem.SweepStride)
		if err != nil {
			return nil, nil, err
		}
		if warmCache.configs == nil {
			warmCache.configs = map[mem.Config]*warmConfig{}
		}
		c = &warmConfig{data: data, texts: map[int]*mem.TextWarm{}}
		warmCache.configs[key.cfg] = c
		warmCache.bytes += data.Bytes()
	}
	if text, ok := c.texts[key.lines]; ok {
		return c.data, text, nil
	}
	text := c.data.Text(textBase, key.lines)
	c.texts[key.lines] = text
	warmCache.order = append(warmCache.order, key)
	warmCache.bytes += text.Bytes()
	// The newest text part stays, and with it its configuration.
	for len(warmCache.order) > 1 && warmCache.bytes > maxWarmBytes {
		old := warmCache.order[0]
		warmCache.order = warmCache.order[1:]
		oc := warmCache.configs[old.cfg]
		warmCache.bytes -= oc.texts[old.lines].Bytes()
		delete(oc.texts, old.lines)
		if len(oc.texts) == 0 {
			warmCache.bytes -= oc.data.Bytes()
			delete(warmCache.configs, old.cfg)
		}
	}
	return c.data, text, nil
}
