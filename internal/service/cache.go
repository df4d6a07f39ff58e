package service

import (
	"container/list"

	"repro/internal/scenario"
)

// resultCache is the memory tier of the content-addressed result
// cache: completed results keyed by the canonical hash of the resolved
// spec that produced them (scenario.Spec.CanonicalHash). Because every
// run is deterministic in its resolved spec, a hit is exactly the
// result a fresh run would compute, so re-submitting an identical spec
// never re-runs the engine. The cache is bounded by entry count with
// LRU eviction; both hits (lookup) and insertions (Put) refresh
// recency. The durable tier below it is internal/store, consulted by
// the Service's admission path when this one misses.
//
// resultCache is not self-locking: the owning Service serializes all
// access under its own mutex, which also keeps the hit/miss counters
// consistent with the job bookkeeping they are reported next to. The
// counters span both tiers — they tally submissions answered from
// *any* cache versus submissions that needed an engine run (or an
// in-flight one to coalesce onto), which is the number capacity
// planning wants — and are incremented by the admission logic, not
// here, so the two-pass memory/store lookup counts each submission
// exactly once.
type resultCache struct {
	max     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // hash -> element in ll
	hits    uint64
	misses  uint64
}

// cacheEntry is one ll element's payload. The resolved spec rides next
// to the result so a hash-addressed lookup (GET /v1/results/{hash})
// can render the full body — meta block included — without a job
// record for the spec.
type cacheEntry struct {
	hash   string
	spec   scenario.Spec
	result scenario.Result
}

// newResultCache builds a cache bounded to max entries; max < 1
// disables caching (every Get misses, Put is a no-op).
func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// lookup returns the cached result and resolved spec for hash,
// refreshing its recency. It does not touch the hit/miss counters —
// the admission path owns those (see the type comment).
func (c *resultCache) lookup(hash string) (scenario.Result, scenario.Spec, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return scenario.Result{}, scenario.Spec{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.result, e.spec, true
}

// Put stores a completed result (and the resolved spec that produced
// it) under its spec hash, evicting the least-recently-used entry when
// the bound is exceeded. Re-putting an existing hash refreshes recency
// (the result is identical by construction — same hash, deterministic
// engine).
func (c *resultCache) Put(hash string, spec scenario.Spec, res scenario.Result) {
	if c.max < 1 {
		return
	}
	if el, ok := c.entries[hash]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.entries[hash] = c.ll.PushFront(&cacheEntry{hash: hash, spec: spec, result: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).hash)
	}
}

// Len returns the current entry count.
func (c *resultCache) Len() int { return c.ll.Len() }
