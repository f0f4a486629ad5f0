package seq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tlc/internal/governor"
	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// slabNodes is the number of Node structs per slab. A Node is 96 bytes, so
// one slab is 6 KB — an allocator size class, large enough that a query
// allocating millions of witness nodes pays one allocation per 64 of them,
// small enough that a point lookup, which builds a handful, does not pay
// for (and zero, and make the collector account for) 50 KB it never uses.
const slabNodes = 64

// Slab is one contiguous allocation of witness nodes in the hands of one
// goroutine. Nodes are handed out by bumping len(buf); the backing array is
// never reallocated (cap is fixed), so pointers into it stay valid for the
// life of the slab.
//
// kids is the slab's block of child pointers: Kids carves exactly sized,
// full-slice-capped child lists out of it, so a builder that knows a node's
// fan-out pays a pointer bump instead of an allocation that then grows
// 1→2→4. Either block is replaced, not the slab, when it runs out.
//
// A nil *Slab is valid — what a nil arena hands out — and allocates from
// the heap.
type Slab struct {
	a    *Arena
	buf  []Node
	kids []*Node
	// taken counts the nodes handed out since Hold; Release adds it to the
	// arena's counters.
	taken int64
}

// kidsBlock is the number of child pointers per block (1 KB); a request for
// more than a quarter of it gets its own allocation.
const kidsBlock = 128

// Arena is a per-evaluation slab allocator for witness nodes. One Arena is
// created per query run (see algebra.NewContextFor); every operator
// allocates its short-lived nodes from it, turning the per-node `new`
// into a pointer bump most of the time.
//
// Concurrency: partially filled slabs live in a sync.Pool. A goroutine
// Gets a slab (gaining exclusive access), bumps it, and Puts it back, so
// allocation takes no shared lock. A slab dropped by the pool only wastes
// its unused tail — nodes already handed out are kept alive by the trees
// referencing them.
//
// Lifetime: slabs are never recycled across queries. Result trees returned
// to the caller keep their slabs reachable, and the GC frees everything
// when the result is dropped — there is no explicit release, which is what
// makes handing aliased trees to the plan-cache/service layer safe.
//
// A nil *Arena is valid and falls back to plain `new` for every node —
// the path used by package-level constructors, tests, and nodes that must
// outlive any particular run.
type Arena struct {
	free  sync.Pool // *Slab with spare capacity
	nodes atomic.Int64
	slabs atomic.Int64
	// gov, when non-nil, budgets this arena's memory: every new slab is
	// charged against the run's governor, and an exhausted budget aborts
	// the allocating query via governor.Abort (recovered into a typed
	// *ErrBudgetExceeded at the evaluator's containment barriers). Slab
	// granularity keeps the check off the per-node fast path.
	gov *governor.Governor
}

// slabBytes is the memory charged to the governor per slab.
const slabBytes = slabNodes * int64(unsafe.Sizeof(Node{}))

// Engine-wide allocation counters, surfaced in /varz. They deliberately
// count since process start, not per arena.
var (
	arenaNodesTotal atomic.Int64
	arenaSlabsTotal atomic.Int64
	plainNodesTotal atomic.Int64
)

// ArenaTotals reports process-wide witness-node allocation counts:
// arena-backed nodes, slabs allocated, and plain `new` fallbacks (nil
// arena or package-level constructors).
func ArenaTotals() (nodes, slabs, plain int64) {
	return arenaNodesTotal.Load(), arenaSlabsTotal.Load(), plainNodesTotal.Load()
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// WithGovernor makes the arena charge its slab allocations against g (nil
// disables budgeting) and returns the arena for chaining. Set once, before
// allocation starts.
func (a *Arena) WithGovernor(g *governor.Governor) *Arena {
	if a != nil {
		a.gov = g
	}
	return a
}

// ArenaStats is a snapshot of one arena's allocation counters.
type ArenaStats struct {
	// Nodes is the number of witness nodes handed out by this arena.
	Nodes int64
	// Slabs is the number of slabs allocated to serve them.
	Slabs int64
}

func (s ArenaStats) String() string {
	return fmt.Sprintf("arena: %d nodes in %d slabs", s.Nodes, s.Slabs)
}

// Stats snapshots the arena's counters. Safe to call concurrently with
// allocation.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Nodes: a.nodes.Load(), Slabs: a.slabs.Load()}
}

// Hold takes a slab out of the arena for the exclusive use of the calling
// goroutine until Release. A loop that builds many nodes — the pattern
// matcher's — allocates from it by pointer bump, without the pool round
// trip and the counter updates a single Arena call pays per node. Whatever
// else allocates from the arena meanwhile is served from another slab.
func (a *Arena) Hold() *Slab {
	if a == nil {
		return nil
	}
	if s, _ := a.free.Get().(*Slab); s != nil {
		return s
	}
	return &Slab{a: a}
}

// Release returns a held slab to the arena and adds the nodes it handed
// out to the counters.
func (a *Arena) Release(s *Slab) {
	if s == nil {
		return
	}
	a.nodes.Add(s.taken)
	arenaNodesTotal.Add(s.taken)
	s.taken = 0
	a.free.Put(s)
}

// node returns a zeroed witness node.
func (s *Slab) node() *Node {
	if s == nil {
		plainNodesTotal.Add(1)
		return &Node{}
	}
	if len(s.buf) == cap(s.buf) {
		if err := s.a.gov.AddAlloc(slabNodes, slabBytes); err != nil {
			// No error return exists on the node-allocation path; abort the
			// query with a controlled panic the evaluator barriers convert
			// back into the budget error.
			governor.Abort(err)
		}
		s.a.slabs.Add(1)
		arenaSlabsTotal.Add(1)
		s.buf = make([]Node, 0, slabNodes)
	}
	s.buf = s.buf[:len(s.buf)+1] // a block is handed out once: still zero
	s.taken++
	return &s.buf[len(s.buf)-1]
}

// Kids returns an empty child list with room for exactly n nodes. Appending
// an n+1st child reallocates, like any full slice, and leaves the
// neighbouring lists untouched.
func (s *Slab) Kids(n int) []*Node {
	if s == nil {
		return make([]*Node, 0, n)
	}
	if n > kidsBlock/4 {
		s.a.charge(int64(n) * ptrBytes)
		return make([]*Node, 0, n)
	}
	if len(s.kids)+n > cap(s.kids) {
		s.a.charge(kidsBlock * ptrBytes)
		s.kids = make([]*Node, 0, kidsBlock)
	}
	at := len(s.kids)
	s.kids = s.kids[:at+n]
	return s.kids[at : at : at+n]
}

// Ordinals returns a zero-length ordinal vector with capacity n whose bytes
// are charged to the arena's governor: the match kernel's candidate
// vectors are query memory like the witness nodes they stand for.
func (a *Arena) Ordinals(n int) []int32 {
	a.charge(int64(n) * 4)
	return make([]int32, 0, n)
}

const ptrBytes = int64(unsafe.Sizeof((*Node)(nil)))

// charge bills b bytes of non-node memory to the governor, aborting the
// query like an over-budget node block does.
func (a *Arena) charge(b int64) {
	if a == nil {
		return
	}
	if err := a.gov.AddAlloc(0, b); err != nil {
		governor.Abort(err)
	}
}

// node is Hold, one node, Release.
func (a *Arena) node() *Node {
	s := a.Hold()
	n := s.node()
	a.Release(s)
	return n
}

// StoreNodeOf returns a witness node referencing the store node at
// (doc, ord), its kind, tag and value cached from the columnar view d
// (which must be the view of doc).
func (s *Slab) StoreNodeOf(doc store.DocID, ord int32, d *store.Doc) *Node {
	n := s.node()
	n.Doc, n.Ord = doc, ord
	n.Kind, n.Tag, n.Value = d.Kind(ord), d.Tag(ord), d.Value(ord)
	return n
}

// StoreNode returns a witness node referencing the store node at
// (doc, ord), allocated from the arena. Kind, tag and value are cached
// from the store's columns (tag and value are dictionary-interned
// strings, so caching them copies two string headers, not bytes).
func (a *Arena) StoreNode(doc store.DocID, ord int32, kind xmltree.Kind, tag, value string) *Node {
	n := a.node()
	n.Doc, n.Ord = doc, ord
	n.Kind, n.Tag, n.Value = kind, tag, value
	return n
}

// StoreNodeOf is StoreNode reading the cached fields from the columnar
// document view d (which must be the view of doc).
func (a *Arena) StoreNodeOf(doc store.DocID, ord int32, d *store.Doc) *Node {
	return a.StoreNode(doc, ord, d.Kind(ord), d.Tag(ord), d.Value(ord))
}

// TempElement returns a fresh temporary element node from the arena.
func (a *Arena) TempElement(tag string) *Node {
	n := a.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.Tag = xmltree.Element, tag
	return n
}

// TempText returns a fresh temporary text node from the arena.
func (a *Arena) TempText(value string) *Node {
	n := a.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.Tag, n.Value = xmltree.Text, xmltree.TextTag, value
	return n
}

// TempAttr returns a fresh temporary attribute node from the arena; name
// is stored with the "@" prefix like stored attributes.
func (a *Arena) TempAttr(name, value string) *Node {
	n := a.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.Tag, n.Value = xmltree.Attribute, "@"+name, value
	return n
}

// NewTree returns a tree rooted at root whose future node copies (Mutable,
// Clone) draw from this arena.
func (a *Arena) NewTree(root *Node) *Tree {
	return &Tree{Root: root, arena: a}
}
