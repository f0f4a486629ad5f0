// Package plancache caches compiled query plans (tlc.Prepared) behind an
// LRU keyed on everything that determines compilation output: the query
// text, the engine and the budget. Because a Prepared is safe for
// concurrent Run calls (the plan tree is immutable after compile; per-run
// state lives in the evaluation context), one cached entry can serve many
// concurrent requests — the cache is what turns the service's per-request
// compile cost into a one-time cost per distinct query.
//
// Keying is by the raw text: a hit is one map lookup, and a miss parses
// once, inside CompileContext. Two spellings of a query that differ only
// in whitespace or variable names are two entries, each compiled once.
//
// A cached plan never goes stale. Compilation is a function of the key
// alone and reads no document, so a load or an update leaves every entry
// what a fresh compile would produce; the cache records no document
// versions and drops entries only to capacity pressure.
package plancache

import (
	"container/list"
	"context"
	"sync"

	"tlc"
	"tlc/internal/faultinject"
)

// Key identifies a compilation: two requests with equal keys get the same
// Prepared back.
type Key struct {
	// Query is the query text as submitted; it keys byte for byte.
	Query string
	// Engine is the evaluation engine.
	Engine tlc.Engine
	// Parallelism is ignored (evaluation is serial). It remains only because
	// bench/layers.go:225 sets it; Load clears it before keying.
	Parallelism int
	// Limits mirrors tlc.WithLimits: the resource budget is baked into the
	// Prepared too, so differently-budgeted requests must not share plans.
	// tlc.Limits is a flat comparable struct, so it keys directly.
	Limits tlc.Limits
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits uint64 `json:"hits"`
	// HitsContainment is always 0 and never serialized. It remains only
	// because bench/layers.go:555 reads it.
	HitsContainment uint64 `json:"-"`
	// Misses counts lookups that had to compile.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to capacity pressure.
	Evictions uint64 `json:"evictions"`
	// Size and Capacity describe the current occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

type entry struct {
	key  Key
	prep *tlc.Prepared
}

// Cache is a fixed-capacity LRU of compiled plans. The zero value is not
// usable; call New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	byKey    map[Key]*list.Element
	order    *list.List // front = most recently used

	hits, misses, evictions uint64
}

// New returns an empty cache holding at most capacity plans (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		byKey:    make(map[Key]*list.Element, capacity),
		order:    list.New(),
	}
}

// Load returns the cached Prepared for key, compiling it on a miss. The
// bool reports whether the lookup was a hit. Compilation runs outside the
// cache lock, so a slow compile never blocks hits for other keys;
// concurrent misses for the same key may compile twice, and the first
// finisher's plan stays cached (both plans are the same, so either may be
// handed out).
func (c *Cache) Load(ctx context.Context, db *tlc.Database, key Key) (*tlc.Prepared, bool, error) {
	key.Parallelism = 0
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		prep := el.Value.(*entry).prep
		c.mu.Unlock()
		return prep, true, nil
	}
	c.misses++
	c.mu.Unlock()

	if err := faultinject.Hit(faultinject.PointPlanCacheFill); err != nil {
		return nil, false, err
	}
	prep, err := db.CompileContext(ctx, key.Query, tlc.WithEngine(key.Engine), tlc.WithLimits(key.Limits))
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A concurrent miss beat us here; keep the incumbent entry hot and
		// hand out our own compile.
		c.order.MoveToFront(el)
		return prep, false, nil
	}
	c.byKey[key] = c.order.PushFront(&entry{key: key, prep: prep})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		c.evictions++
	}
	return prep, false, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.order.Len(),
		Capacity:  c.capacity,
	}
}
