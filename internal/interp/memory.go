package interp

import (
	"encoding/binary"
	"sort"
)

// pageBits sizes the sparse memory pages (4 KiB).
const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, page-granular byte-addressed memory. Uninitialized
// locations read as zero. It is deliberately simple: programs in this
// repository only touch their data segment, so a map of pages is ample. A
// one-entry page cache short-circuits the map on the overwhelmingly common
// case of consecutive accesses to the same page.
type Memory struct {
	pages map[uint64]*[pageSize]byte

	lastPN   uint64 // page number of last, valid only when last != nil
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Store8 stores b at addr.
func (m *Memory) Store8(addr uint64, b byte) {
	m.page(addr, true)[addr&(pageSize-1)] = b
}

// Read64 returns the little-endian 64-bit value at addr (unaligned allowed).
func (m *Memory) Read64(addr uint64) uint64 {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(m.Load8(addr+uint64(i))) << (8 * uint(i))
	}
	return v
}

// Write64 stores the little-endian 64-bit value v at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], v)
		return
	}
	for i := 0; i < 8; i++ {
		m.Store8(addr+uint64(i), byte(v>>(8*uint(i))))
	}
}

// Read32 returns the little-endian 32-bit value at addr.
func (m *Memory) Read32(addr uint64) uint32 {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off:])
	}
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(m.Load8(addr+uint64(i))) << (8 * uint(i))
	}
	return v
}

// Write32 stores the little-endian 32-bit value v at addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr, true)[off:], v)
		return
	}
	for i := 0; i < 4; i++ {
		m.Store8(addr+uint64(i), byte(v>>(8*uint(i))))
	}
}

// WriteBytes copies b into memory starting at addr, a page at a time.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr, true)[addr&(pageSize-1):], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.Load8(addr + uint64(i))
	}
	return b
}

// Hash returns an order-independent-of-insertion, content-dependent FNV-style
// hash of all touched memory, for cheap equality checks between executions.
// Pages that contain only zeroes hash identically to absent pages.
func (m *Memory) Hash() uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, pn := range pns {
		p := m.pages[pn]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		h ^= pn
		h *= prime
		for _, b := range p {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}
