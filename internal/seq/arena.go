package seq

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tlc/internal/governor"
	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// blockNodes is the number of nodes per node block, blockShift its log. A
// Node is 48 bytes, so a block is 6 KB — an allocator size class, large
// enough that a query allocating millions of witness nodes pays one
// allocation per 128 of them, small enough that a point lookup, which
// builds a handful, does not pay for (and zero) 50 KB it never uses.
const (
	blockShift = 7
	blockNodes = 1 << blockShift
)

// listShift is the log of the number of node IDs per list block (1 KB). A
// list longer than a quarter of a block gets a block of its own.
const (
	listShift = 8
	listBlock = 1 << listShift
)

// Arena is a per-evaluation allocator for witness trees, and the address
// space their nodes live in. One Arena is created per query run (see
// algebra.NewContextFor); every operator allocates its nodes from it.
//
// Nothing in an arena's blocks is a pointer: a node addresses its parent
// and children by NodeID, a child list or class member list is a run of
// NodeIDs in the arena's list space, and a temporary node's value is an
// offset into the arena's value bytes. The collector therefore marks a
// node block reachable and never scans it, and scans one word of a tree
// block; what it scans of an arena is the directories of its blocks.
//
// Concurrency: an arena serves one evaluation, which runs on one
// goroutine. Partially filled slabs live in a sync.Pool, so that a
// goroutine Gets a slab, bumps it, and Puts it back without a shared lock.
//
// Lifetime: blocks are never recycled across queries. Result trees keep
// their arena reachable, and the GC frees everything when the result is
// dropped — there is no explicit release, which is what makes handing
// result trees to the plan-cache/service layer safe.
type Arena struct {
	free  sync.Pool // *Slab with spare capacity
	nodes atomic.Int64
	slabs atomic.Int64
	// gov, when non-nil, budgets this arena's memory: every new block is
	// charged against the run's governor, and an exhausted budget aborts
	// the allocating query via governor.Abort (recovered into a typed
	// *ErrBudgetExceeded at the evaluator's containment barriers). Block
	// granularity keeps the check off the per-node fast path.
	gov *governor.Governor
	// blocks is the node space: NodeID n is blocks[n>>blockShift][n&(blockNodes-1)].
	// NodeID 0 (NoNode) is never handed out.
	blocks []*[blockNodes]Node
	// lists is the list space: a list reference r addresses
	// lists[r>>listShift][r&(listBlock-1):]. next is the reference of the
	// next free ID of the current block and end the first reference past
	// it.
	lists     [][]NodeID
	next, end int32
	// text holds the values of the arena's temporary text and attribute
	// nodes, each a uvarint length and the bytes; offset 0 is the empty
	// value. Bytes once written never change: a value read from them
	// (textAt) shares their memory.
	text []byte
}

// blockBytes is the memory charged to the governor per node block.
const blockBytes = blockNodes * int64(unsafe.Sizeof(Node{}))

// Engine-wide allocation counters, surfaced in /varz. They deliberately
// count since process start, not per arena.
var (
	arenaNodesTotal atomic.Int64
	arenaSlabsTotal atomic.Int64
	plainNodesTotal atomic.Int64
)

// ArenaTotals reports process-wide witness-node allocation counts:
// arena nodes, node blocks allocated, and nodes built outside any arena
// (NewStoreNode).
func ArenaTotals() (nodes, slabs, plain int64) {
	return arenaNodesTotal.Load(), arenaSlabsTotal.Load(), plainNodesTotal.Load()
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{text: []byte{0}} }

// WithGovernor makes the arena charge its block allocations against g (nil
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
	// Slabs is the number of node blocks allocated to serve them.
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

// Slab is a node block and a tree block of an arena in the hands of one
// caller. Nodes and trees are handed out by bumping a counter; neither
// block is ever reallocated, so pointers into them stay valid for the life
// of the arena. Each block is replaced, not the slab, when it runs out.
type Slab struct {
	a    *Arena
	blk  *[blockNodes]Node
	base NodeID // the ID of blk[0]
	used int    // nodes of blk handed out; blockNodes when there is no block
	// trees is the slab's block of witness trees; NewTree hands them out
	// like node does nodes.
	trees []Tree
	// taken counts the nodes handed out since Hold; Release adds it to the
	// arena's counters.
	taken int64
}

// Hold takes a slab out of the arena for the exclusive use of the caller
// until Release. A loop that builds many nodes — the pattern matcher's —
// allocates from it by bumping a counter, without the pool round trip and
// the counter updates a per-node Arena call would pay. A nil arena holds a
// slab of a fresh arena of its own.
func (a *Arena) Hold() *Slab {
	if a == nil {
		a = NewArena()
	}
	if s, _ := a.free.Get().(*Slab); s != nil {
		return s
	}
	return &Slab{a: a, used: blockNodes}
}

// Release returns a held slab to its arena and adds the nodes it handed
// out to the counters.
func (a *Arena) Release(s *Slab) {
	if s == nil {
		return
	}
	s.a.nodes.Add(s.taken)
	arenaNodesTotal.Add(s.taken)
	s.taken = 0
	s.a.free.Put(s)
}

// node returns the ID of a zeroed witness node and the node.
func (s *Slab) node() (NodeID, *Node) {
	if s.used == blockNodes {
		a := s.a
		if err := a.gov.AddAlloc(blockNodes, blockBytes); err != nil {
			// No error return exists on the node-allocation path; abort the
			// query with a controlled panic the evaluator barriers convert
			// back into the budget error.
			governor.Abort(err)
		}
		a.slabs.Add(1)
		arenaSlabsTotal.Add(1)
		s.blk, s.base, s.used = new([blockNodes]Node), NodeID(len(a.blocks)<<blockShift), 0
		if s.base == NoNode {
			s.used = 1 // NoNode addresses no node
		}
		a.blocks = append(a.blocks, s.blk)
	}
	s.used++
	s.taken++
	return s.base + NodeID(s.used-1), &s.blk[s.used-1]
}

// Node returns the node id addresses. The pointer stays valid for the life
// of the arena.
func (a *Arena) Node(id NodeID) *Node {
	return &a.blocks[id>>blockShift][id&(blockNodes-1)]
}

// list returns the n IDs of the list at reference r.
func (a *Arena) list(r, n int32) []NodeID {
	if n == 0 {
		return nil
	}
	off := r & (listBlock - 1)
	return a.lists[r>>listShift][off : off+n : off+n]
}

// alloc returns the reference of a fresh list with room for n IDs.
func (a *Arena) alloc(n int32) int32 {
	if n > listBlock/4 {
		a.charge(int64(n) * 4)
		a.lists = append(a.lists, make([]NodeID, n))
		return int32(len(a.lists)-1) << listShift
	}
	if a.next+n > a.end {
		a.charge(listBlock * 4)
		a.lists = append(a.lists, make([]NodeID, listBlock))
		a.next = int32(len(a.lists)-1) << listShift
		a.end = a.next + listBlock
	}
	r := a.next
	a.next += n
	return r
}

// push appends id to the list (*r, *n, *c) — reference, length, capacity
// — moving it to a list twice as long when it is full.
func (a *Arena) push(r, n, c *int32, id NodeID) {
	if *n == *c {
		a.reserve(r, n, c, max(*n, 1))
	}
	a.lists[*r>>listShift][*r&(listBlock-1)+*n] = id
	*n++
}

// reserve makes room in the list (*r, *n, *c) for more IDs.
func (a *Arena) reserve(r, n, c *int32, more int32) {
	if *n+more <= *c {
		return
	}
	nr := a.alloc(*n + more)
	copy(a.list(nr, *n+more), a.list(*r, *n))
	*r, *c = nr, *n+more
}

// Ordinals returns a zero-length ordinal vector with capacity n whose bytes
// are charged to the arena's governor: the match kernel's candidate
// vectors are query memory like the witness nodes they stand for.
func (a *Arena) Ordinals(n int) []int32 {
	a.charge(int64(n) * 4)
	return make([]int32, 0, n)
}

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

// treeBlock is a block of trees behind the one pointer of the block: the
// trees' arena, which a tree finds from its slot (Tree.Arena).
type treeBlock struct {
	arena *Arena
	trees [16]Tree
}

const (
	treeSize    = unsafe.Sizeof(Tree{})
	treesOffset = unsafe.Offsetof(treeBlock{}.trees)
)

// NewTree returns a tree rooted at root with an empty class table, carved
// from the slab's tree block.
func (s *Slab) NewTree(root NodeID) *Tree {
	if len(s.trees) == cap(s.trees) {
		s.a.charge(int64(unsafe.Sizeof(treeBlock{})))
		s.trees = (&treeBlock{arena: s.a}).trees[:0]
	}
	s.trees = s.trees[:len(s.trees)+1] // a block is handed out once: still zero
	t := &s.trees[len(s.trees)-1]
	t.Root, t.slot = root, int32(len(s.trees)-1)
	return t
}

// StoreNodeOf returns a witness node referencing the store node at
// (doc, ord), its kind read from the columnar view d (which must be the
// view of doc).
func (s *Slab) StoreNodeOf(doc store.DocID, ord int32, d *store.Doc) NodeID {
	return s.StoreNode(doc, ord, d.Kind(ord))
}

// StoreNode returns a witness node referencing the store node at
// (doc, ord) of the given kind. Its tag and value are read from the
// columns when needed.
func (s *Slab) StoreNode(doc store.DocID, ord int32, kind xmltree.Kind) NodeID {
	id, n := s.node()
	n.Doc, n.Ord, n.Kind = doc, ord, kind
	return id
}

// temp returns a fresh temporary node.
func (s *Slab) temp(kind xmltree.Kind, tag TagID, value string) NodeID {
	id, n := s.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.tag = kind, tag
	n.val = s.a.addText(value)
	return id
}

// addText appends a temporary node's value to the value bytes and returns
// its offset.
func (a *Arena) addText(v string) int32 {
	if v == "" {
		return 0
	}
	off := int32(len(a.text))
	a.text = append(binary.AppendUvarint(a.text, uint64(len(v))), v...)
	return off
}

// textAt returns the value at offset off of the value bytes. It shares
// their memory, which is never written again.
func (a *Arena) textAt(off int32) string {
	if off == 0 {
		return ""
	}
	n, k := binary.Uvarint(a.text[off:])
	return unsafe.String(&a.text[int(off)+k], n)
}

// TempElement returns a fresh temporary element node.
func (s *Slab) TempElement(tag TagID) NodeID { return s.temp(xmltree.Element, tag, "") }

// TempText returns a fresh temporary text node.
func (s *Slab) TempText(value string) NodeID { return s.temp(xmltree.Text, textTag, value) }

// TempAttr returns a fresh temporary attribute node; tag is its name as
// stored, with the "@" prefix like stored attributes.
func (s *Slab) TempAttr(tag TagID, value string) NodeID {
	return s.temp(xmltree.Attribute, tag, value)
}

// Attach links child under parent, keeping Parent links consistent.
func (s *Slab) Attach(parent, child NodeID) { s.a.Attach(parent, child) }

// Attach links child under parent, keeping Parent links consistent. A
// parent whose child list is full gets a list twice as long.
func (a *Arena) Attach(parent, child NodeID) {
	a.Node(child).Parent = parent
	p := a.Node(parent)
	a.push(&p.kids, &p.nkids, &p.ckids, child)
}

// SetKids makes kids the complete child list of parent, in an exactly
// sized list, and sets their Parent links.
func (a *Arena) SetKids(parent NodeID, kids []NodeID) {
	p := a.Node(parent)
	if int32(len(kids)) > p.ckids {
		p.kids, p.ckids = a.alloc(int32(len(kids))), int32(len(kids))
	}
	p.nkids = int32(copy(a.list(p.kids, p.ckids), kids))
	for _, k := range kids {
		a.Node(k).Parent = parent
	}
}

// GrowKids makes room for more children of n, so that a builder that
// knows a node's fan-out pays for one list, not for one that doubles.
func (a *Arena) GrowKids(n NodeID, more int) {
	p := a.Node(n)
	a.reserve(&p.kids, &p.nkids, &p.ckids, int32(more))
}

// Kids returns the children of n within its witness tree. The result
// aliases the arena's list space and must not be modified.
func (a *Arena) Kids(n NodeID) []NodeID {
	p := a.Node(n)
	return a.list(p.kids, p.nkids)
}
