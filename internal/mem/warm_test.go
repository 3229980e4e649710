package mem

import (
	"math/bits"
	"reflect"
	"testing"
)

// The simulator's sweeps: text from 0x1000, a megabyte of data from
// 0x10000. Past 960 lines the text runs into the data sweep's lines.
const (
	fuzzTextBase  = 0x1000
	fuzzDataBase  = 0x10000
	fuzzDataSteps = 1 << 20 / SweepStride
)

// fuzzCache maps v to a cache geometry within the ceilings: lines of 8 to
// 256 bytes, 1 to 256 ways, 1 to 2^18 sets, at least 1 KiB in all.
func fuzzCache(v uint32) CacheConfig {
	lineB, ways, sets := 8<<(v%6), 1<<(v/6%9), 1<<(v/54%19)
	for sets > 1 && (ways*sets > MaxCacheLines || lineB*ways*sets > MaxCacheKB<<10) {
		sets /= 2
	}
	for ways*sets > MaxCacheLines || lineB*ways*sets > MaxCacheKB<<10 {
		ways /= 2
	}
	for lineB*ways*sets < 1<<10 {
		sets *= 2
	}
	return CacheConfig{SizeKB: lineB * ways * sets >> 10, Assoc: ways, LineB: lineB, Latency: 1}
}

// fuzzGeometry is fuzzCache's inverse.
func fuzzGeometry(c CacheConfig) uint32 {
	sets := c.SizeKB << 10 / c.LineB / c.Assoc
	return uint32(bits.TrailingZeros(uint(c.LineB/8)) + 6*bits.TrailingZeros(uint(c.Assoc)) + 54*bits.TrailingZeros(uint(sets)))
}

// FuzzWarmComposition: for any three geometries, perfect or not, and any
// text length, the hierarchy composed from the data sweep's record and the
// text's delta is byte-equal to replaying both sweeps on a cold hierarchy:
// tags, valid bits, stamps, ticks and counters at all three levels.
func FuzzWarmComposition(f *testing.F) {
	t4 := DefaultConfig()
	i, d, l2 := fuzzGeometry(t4.L1I), fuzzGeometry(t4.L1D), fuzzGeometry(t4.L2)
	f.Add(i, d, l2, uint16(16), false)
	f.Add(i, d, l2, uint16(1000), false)
	f.Add(i, d, l2, uint16(16), true)
	f.Add(i, d, fuzzGeometry(CacheConfig{SizeKB: 4096, Assoc: 8, LineB: 128}), uint16(9000), false)
	f.Add(fuzzGeometry(CacheConfig{SizeKB: 64, Assoc: 4, LineB: 32}), d, fuzzGeometry(CacheConfig{SizeKB: 256, Assoc: 2, LineB: 64}), uint16(250), false)
	f.Add(fuzzGeometry(CacheConfig{SizeKB: 64, Assoc: 4, LineB: 128}), fuzzGeometry(CacheConfig{SizeKB: 64, Assoc: 2, LineB: 32}), l2, uint16(1), false)
	f.Fuzz(func(t *testing.T, l1i, l1d, l2 uint32, lines uint16, perfect bool) {
		cfg := Config{L1I: fuzzCache(l1i), L1D: fuzzCache(l1d), L2: fuzzCache(l2), MemLatency: 400, Perfect: perfect}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzCache made an invalid geometry: %v", err)
		}
		want, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(lines); i++ {
			want.AccessI(fuzzTextBase + uint64(i)*SweepStride)
		}
		for i := 0; i < fuzzDataSteps; i++ {
			want.AccessD(fuzzDataBase + uint64(i)*SweepStride)
		}
		data, err := NewDataWarm(cfg, fuzzDataBase, fuzzDataSteps)
		if err != nil {
			t.Fatal(err)
		}
		if got := data.Compose(data.Text(fuzzTextBase, int(lines)), nil); !reflect.DeepEqual(got, want) {
			gi, gim, gd, gdm, g2, g2m := got.Stats()
			wi, wim, wd, wdm, w2, w2m := want.Stats()
			t.Fatalf("%+v, %d text lines: the composed hierarchy differs from the replayed one\n got  L1I %d/%d L1D %d/%d L2 %d/%d\n want L1I %d/%d L1D %d/%d L2 %d/%d",
				cfg, lines, gi, gim, gd, gdm, g2, g2m, wi, wim, wd, wdm, w2, w2m)
		}
	})
}
