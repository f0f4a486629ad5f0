// Package plancache caches compiled query plans (tlc.Prepared) behind an
// LRU keyed on everything that determines compilation output: the
// canonicalized query, the engine and the budget. Because a Prepared is
// safe for concurrent Run calls (the plan DAG is immutable after compile;
// per-run state lives in the evaluation context), one cached entry can
// serve many concurrent requests — the cache is what turns the service's
// per-request compile cost into a one-time cost per distinct query.
//
// Keying is by canonical form, not raw text: tlc.Canonicalize α-renames
// variables and renders deterministically, so two spellings of the same
// query (different variable names, whitespace) share one entry. On an
// exact miss the cache additionally probes a structural-signature index
// with the canonical Struct key (liftable predicate literals elided): a
// cached plan whose predicates are implied by the new query's serves the
// request through tlc.Prepared.WithResidual — the plan is reused with
// residual filters grafted above the owning Selects, skipping parse,
// translate and rewrite entirely. Exact and containment hits are counted
// separately.
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
	// Query is the query text as submitted. Internally the cache indexes
	// by the canonical form (see tlc.Canonicalize), so queries differing
	// only in variable names or whitespace share an entry.
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
	// Hits counts lookups served from the cache (exact + containment).
	Hits uint64 `json:"hits"`
	// HitsExact counts lookups whose canonical key matched an entry.
	HitsExact uint64 `json:"plan_hits_exact"`
	// HitsContainment counts lookups served by reusing a subsuming plan
	// with residual filters.
	HitsContainment uint64 `json:"plan_hits_containment"`
	// ContainmentProbes counts exact misses that consulted the structural
	// signature index (whether or not a subsuming plan was found).
	ContainmentProbes uint64 `json:"containment_probes"`
	// Misses counts lookups that had to compile.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to capacity pressure.
	Evictions uint64 `json:"evictions"`
	// Size and Capacity describe the current occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

type entry struct {
	key  Key // canonical: key.Query is the canonical Exact string
	prep *tlc.Prepared
	// structKey is key with Query replaced by the canonical Struct string;
	// set (and indexed) only for containable entries.
	structKey Key
	// canonSites / predSites align elementwise: canonical literal site i is
	// the translator's predicate site i. Recorded only when the entry is
	// containable.
	canonSites []tlc.CanonicalSite
	predSites  []tlc.PredSite
	// containable marks entries eligible to serve containment reuse: an
	// eligible engine whose canonicalizer and translator agree on every
	// predicate site.
	containable bool
}

// Cache is a fixed-capacity LRU of compiled plans. The zero value is not
// usable; call New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	byKey    map[Key]*list.Element
	// byStruct indexes containable entries by their structural-signature
	// key; a signature can be shared by several entries differing only in
	// liftable literal values.
	byStruct map[Key][]*list.Element
	order    *list.List // front = most recently used

	hits, hitsExact, hitsContainment, containmentProbes, misses, evictions uint64
}

// New returns an empty cache holding at most capacity plans (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		byKey:    make(map[Key]*list.Element, capacity),
		byStruct: make(map[Key][]*list.Element),
		order:    list.New(),
	}
}

// containmentEngine reports whether an engine's plans can serve
// containment reuse. TLCOpt is excluded: the Section 4 rewrites (Flatten,
// Shadow, pattern reuse) restructure class membership in ways the residual
// filter's one-member-per-tree premise does not survive. Nav has no plan.
func containmentEngine(e tlc.Engine) bool {
	return e == tlc.TLC || e == tlc.GTP || e == tlc.TAX
}

// remove drops one entry from the LRU and both indexes. Caller holds mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.byKey, e.key)
	if e.containable {
		peers := c.byStruct[e.structKey]
		for i, p := range peers {
			if p == el {
				peers = append(peers[:i], peers[i+1:]...)
				break
			}
		}
		if len(peers) == 0 {
			delete(c.byStruct, e.structKey)
		} else {
			c.byStruct[e.structKey] = peers
		}
	}
}

// probeContainment scans the structural-signature peers of skey for an
// entry whose predicates the new query's imply, and derives a
// residual-filtered Prepared from it. Caller holds mu.
func (c *Cache) probeContainment(skey Key, sites []tlc.CanonicalSite) (*tlc.Prepared, bool) {
	for _, el := range c.byStruct[skey] {
		e := el.Value.(*entry)
		if len(e.canonSites) != len(sites) {
			continue
		}
		var residuals []tlc.ResidualSite
		ok := true
		for i, s := range sites {
			cs := e.canonSites[i]
			if s.Op == cs.Op && s.Value == cs.Value {
				continue
			}
			// The predicates differ: only a liftable site may (non-liftable
			// comparisons are inline in the struct key), and only when the
			// new predicate implies the cached one — cross-op entailments
			// like age = 30 under age > 18 included. WithResidual re-verifies
			// the implication at the pattern-tree level before grafting.
			if !cs.Liftable || !e.predSites[i].Liftable {
				ok = false
				break
			}
			if !impliesSite(s, cs) {
				ok = false
				break
			}
			residuals = append(residuals, tlc.ResidualSite{LCL: e.predSites[i].LCL, Op: s.Op, Value: s.Value})
		}
		if !ok {
			continue
		}
		if len(residuals) == 0 {
			// Identical predicate values: the entry serves as-is.
			c.order.MoveToFront(el)
			return e.prep, true
		}
		derived, ok := e.prep.WithResidual(residuals)
		if !ok {
			continue
		}
		c.order.MoveToFront(el)
		return derived, true
	}
	return nil, false
}

// impliesSite wraps pattern.Implies over two canonical sites.
func impliesSite(strong, weak tlc.CanonicalSite) bool {
	return tlc.SiteImplies(strong.Op, strong.Value, weak.Op, weak.Value)
}

// Load returns the cached Prepared for key, compiling it on a miss. The
// bool reports whether the lookup was a hit (exact or containment).
// Compilation runs outside the cache lock, so a slow compile never blocks
// hits for other keys; concurrent misses for the same key may compile
// twice, and the first finisher's plan stays cached (both plans are the
// same, so either may be handed out).
func (c *Cache) Load(ctx context.Context, db *tlc.Database, key Key) (*tlc.Prepared, bool, error) {
	canon, canonErr := tlc.Canonicalize(key.Query)
	key.Parallelism = 0
	ekey := key
	var skey Key
	if canonErr == nil {
		ekey.Query = canon.Exact
		skey = key
		skey.Query = canon.Struct
	}
	// A query the canonicalizer cannot parse cannot compile either; fall
	// through to CompileContext for the authoritative error.

	if canonErr == nil {
		c.mu.Lock()
		if el, ok := c.byKey[ekey]; ok {
			c.hits++
			c.hitsExact++
			c.order.MoveToFront(el)
			prep := el.Value.(*entry).prep
			c.mu.Unlock()
			return prep, true, nil
		}
		if containmentEngine(key.Engine) {
			c.containmentProbes++
			if prep, ok := c.probeContainment(skey, canon.Sites); ok {
				c.hits++
				c.hitsContainment++
				c.mu.Unlock()
				return prep, true, nil
			}
		}
		c.misses++
		c.mu.Unlock()
	} else {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
	}

	if err := faultinject.Hit(faultinject.PointPlanCacheFill); err != nil {
		return nil, false, err
	}
	prep, err := db.CompileContext(ctx, key.Query, tlc.WithEngine(key.Engine), tlc.WithLimits(key.Limits))
	if err != nil {
		return nil, false, err
	}
	if canonErr != nil {
		// Unparseable for the canonicalizer yet compiled? Impossible today
		// (both start from xquery.Parse); hand the plan out uncached.
		return prep, false, nil
	}
	e := &entry{key: ekey, prep: prep}
	e.fillContainment(key, skey, canon)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[ekey]; ok {
		// A concurrent miss beat us here; keep the incumbent entry hot and
		// hand out our own compile.
		c.order.MoveToFront(el)
		return prep, false, nil
	}
	el := c.order.PushFront(e)
	c.byKey[ekey] = el
	if e.containable {
		c.byStruct[e.structKey] = append(c.byStruct[e.structKey], el)
	}
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.remove(oldest)
		c.evictions++
	}
	return prep, false, nil
}

// fillContainment decides whether the freshly compiled entry may serve
// containment reuse and records the aligned site lists if so. The
// canonicalizer's parse-level liftability judgment must not outrun the
// translator's: a site the canonicalizer elided from the struct key but
// the translator cannot lift residually makes the whole entry exact-only.
func (e *entry) fillContainment(key, skey Key, canon *tlc.Canonical) {
	if !containmentEngine(key.Engine) {
		return
	}
	ps := e.prep.PredSites()
	if len(ps) != len(canon.Sites) {
		return
	}
	anyLiftable := false
	for i, cs := range canon.Sites {
		if ps[i].Op != cs.Op || ps[i].Value != cs.Value {
			return
		}
		if cs.Liftable && !ps[i].Liftable {
			return
		}
		if cs.Liftable {
			anyLiftable = true
		}
	}
	if !anyLiftable {
		return
	}
	e.structKey = skey
	e.canonSites = canon.Sites
	e.predSites = ps
	e.containable = true
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:              c.hits,
		HitsExact:         c.hitsExact,
		HitsContainment:   c.hitsContainment,
		ContainmentProbes: c.containmentProbes,
		Misses:            c.misses,
		Evictions:         c.evictions,
		Size:              c.order.Len(),
		Capacity:          c.capacity,
	}
}
