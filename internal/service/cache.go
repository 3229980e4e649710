package service

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"braid/internal/uarch"
)

// lru is a bounded map that evicts its least recently used entry, safe for
// concurrent use. Both of braidd's caches are one: results by simulation
// key, and built programs by program source.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *lruItem[K, V]; front = most recently used
	items map[K]*list.Element
	// onEvict, when set, sees each value the capacity pushes out, after
	// the lock is released, so it may take other locks.
	onEvict func(V)
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty cache of the given capacity; a capacity of zero
// or less stores nothing.
func newLRU[K comparable, V any](capacity int, onEvict func(V)) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[K]*list.Element, max(capacity, 0)),
		onEvict: onEvict,
	}
}

// get returns key's value and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// add stores val under key unless key already holds a value, marks the key
// most recently used, and returns the value it now holds: val, or the one
// stored first.
func (c *lru[K, V]) add(key K, val V) V {
	if c.cap <= 0 {
		return val
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*lruItem[K, V]).val
	}
	c.items[key] = c.ll.PushFront(&lruItem[K, V]{key: key, val: val})
	var oldest *lruItem[K, V] // one in, at most one out
	if c.ll.Len() > c.cap {
		oldest = c.ll.Remove(c.ll.Back()).(*lruItem[K, V])
		delete(c.items, oldest.key)
	}
	c.mu.Unlock()
	if oldest != nil && c.onEvict != nil {
		c.onEvict(oldest.val)
	}
	return val
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// resultCache is a keyed LRU over successful simulation results. The
// simulator is deterministic, so a (program hash, config hash) key fully
// identifies the Stats it produces and a hit is bit-identical to rerunning.
// Failures are never cached: a fault or limit must re-execute so a fixed
// input or a raised budget can succeed.
type resultCache struct {
	entries *lru[string, cacheEntry]
}

type cacheEntry struct {
	st  *uarch.Stats
	est *uarch.SampleEstimate // non-nil only for sampled results
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{entries: newLRU[string, cacheEntry](capacity, nil)}
}

// cloneStats copies a Stats record. Stats is a flat struct of counters, so
// a value copy is a deep copy; handing out clones keeps the cache's master
// copy (and a flight's shared result) immune to caller mutation.
func cloneStats(st *uarch.Stats) *uarch.Stats {
	if st == nil {
		return nil
	}
	c := *st
	return &c
}

// cloneEstimate copies a sampled run's estimate record (a flat struct, like
// Stats); nil stays nil for exact results.
func cloneEstimate(est *uarch.SampleEstimate) *uarch.SampleEstimate {
	if est == nil {
		return nil
	}
	c := *est
	return &c
}

func (c *resultCache) get(key string) (*uarch.Stats, *uarch.SampleEstimate, bool) {
	e, ok := c.entries.get(key)
	if !ok {
		return nil, nil, false
	}
	return cloneStats(e.st), cloneEstimate(e.est), true
}

// put stores a copy of a result: the cache owns its copy, the caller keeps
// theirs.
func (c *resultCache) put(key string, st *uarch.Stats, est *uarch.SampleEstimate) {
	c.entries.add(key, cacheEntry{st: cloneStats(st), est: cloneEstimate(est)})
}

func (c *resultCache) len() int { return c.entries.len() }

// programCacheEntries bounds braidd's program cache. It holds the 52
// programs of the benchmark suite (26 workloads, plain and braided).
const programCacheEntries = 64

// keptTraceInstrs is the longest replay trace, in dynamic instructions, that
// a run leaves cached with its program. A program's trace grows as far as its
// runs fetch, and a longer one would stay pinned until the program's
// eviction.
const keptTraceInstrs = 1 << 26

// progKey identifies a program half: the request's program source and the
// resolved braided flag. Sources are keyed by what determines the program,
// so a hit skips generation, braid compilation and image hashing. An image
// and an image_sha256 source naming its digest share one key.
type progKey struct {
	kind    string            // asm, image, workload or kernel
	name    string            // workload or kernel name
	iters   int               // resolved workload iterations
	digest  [sha256.Size]byte // SHA-256 of the asm text or the decoded image bytes
	braided bool
}

func programKey(req *SimRequest, braided bool) (progKey, error) {
	k := progKey{braided: braided}
	var err error
	switch {
	case req.Asm != "":
		k.kind, k.digest = "asm", sha256.Sum256([]byte(req.Asm))
	case req.Image != "":
		var raw []byte
		raw, err = decodeImage(req.Image)
		k.kind, k.digest = "image", sha256.Sum256(raw)
	case req.ImageSHA256 != "":
		k.kind = "image"
		k.digest, err = imageDigest(req.ImageSHA256)
	case req.Workload != "":
		k.kind, k.name, k.iters = "workload", req.Workload, workloadIters(req)
	default:
		k.kind, k.name = "kernel", req.Kernel
	}
	return k, err
}

// build is Build with the program half served from the program cache, so a
// request repeating a program shares one *isa.Program (and the simulator's
// replay state for it) with every earlier one. The configuration half still
// resolves, validates and hashes per request.
func (s *Server) build(req *SimRequest) (*Built, error) {
	return build(req, Limits{}, s.cachedProgram)
}

// cachedProgram returns the program half for req's source, building and
// storing it on a miss. A hash source that misses builds and stores
// nothing: the server only simulates programs it decoded and hashed itself.
func (s *Server) cachedProgram(req *SimRequest, braided bool) (*programHalf, error) {
	key, err := programKey(req, braided)
	if err != nil {
		return nil, err
	}
	if h, ok := s.programs.get(key); ok {
		return h, nil
	}
	if req.ImageSHA256 != "" {
		s.met.unknownProgram.Add(1)
		return nil, errUnknownProgram
	}
	s.met.programBuilds.Add(1)
	h, err := newProgramHalf(req, braided)
	if err != nil {
		return nil, err // only successful builds are cached
	}
	// A concurrent request may have stored the same source first; take its
	// half, so this one's program is dropped before anything simulates it.
	return s.programs.add(key, h), nil
}

// evictProgram releases the replay state of a program the cache dropped. A
// request may still hold the program; lead releases it again when that
// request's simulation ends, so a late run cannot pin it.
func (s *Server) evictProgram(h *programHalf) {
	h.evicted.Store(true)
	s.releaseProgram(h.prog)
}

// flight is one in-progress simulation that concurrent identical requests
// coalesce onto: the leader runs it, followers wait on done and read the
// shared outcome. Fields are written by the leader before done closes.
type flight struct {
	done  chan struct{}
	st    *uarch.Stats
	est   *uarch.SampleEstimate // non-nil only for sampled runs
	err   error
	simMS float64
}

// flightGroup deduplicates concurrent simulations by cache key, in the
// style of singleflight (stdlib-only, so hand-rolled here).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key and whether the caller is its leader
// (first in, responsible for running the simulation and completing the
// flight).
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// complete publishes the leader's outcome and releases the followers. The
// key is removed before done closes, so requests arriving after completion
// start fresh (and hit the result cache on success).
func (g *flightGroup) complete(key string, fl *flight, st *uarch.Stats, est *uarch.SampleEstimate, err error, simMS float64) {
	fl.st, fl.est, fl.err, fl.simMS = st, est, err, simMS
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}
