// Package seq implements the intermediate results flowing between TLC
// algebra operators: sequences of witness trees whose nodes either
// reference stored nodes or are temporary nodes created during evaluation
// (join roots, aggregate results, constructed elements).
//
// Each tree carries its logical class reduction (Definition 4): a small
// table from logical class labels to the member nodes within the tree.
// Operators address nodes exclusively through that table, which is what
// lets them treat heterogeneous sets of trees homogeneously.
//
// Trees support copy-on-write sharing: a tree handed to more than one
// consumer is frozen (Freeze) and aliased (Seq.Alias); consumers that only
// read pass the frozen tree through untouched, and consumers that mutate
// first obtain a private copy via Mutable/MutableWithMapping. Unfrozen
// trees are owned by their single consumer and are mutated in place, so
// the linear parts of a plan pay zero copies.
//
// Temporary node identifiers follow Section 5.1 of the paper: they satisfy
// node-ID properties 1 (uniqueness) and 4 (order within a class) but not
// properties 2–3, avoiding the in-memory renumbering that full dynamic
// interval assignment would require. They are drawn from a process-wide
// monotone counter, so nodes of the same class created in sequence order
// sort correctly.
package seq

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// tempCounter issues temporary node identifiers (properties 1 and 4 of
// Figure 13). It is atomic so concurrent queries and tests may build trees
// concurrently.
var tempCounter atomic.Int64

// Node is a witness tree node. A node either references a stored node
// (Ord >= 0) or is a temporary node (Ord < 0, TempID > 0).
type Node struct {
	// Doc and Ord locate the referenced store node; Ord is -1 for
	// temporary nodes.
	Doc store.DocID
	Ord int32
	// TempID is the temporary identifier; 0 for store references.
	TempID int64
	// Kind, Tag and Value mirror the node's model data. For store
	// references they are cached copies of the stored record; Value holds
	// attribute/text values only (element content is always read through
	// Content).
	Kind  xmltree.Kind
	Tag   string
	Value string
	// Parent is the node's parent within this witness tree, nil at the root.
	Parent *Node
	// Kids are the node's children within this witness tree. For store
	// references this is in general a *subset* of the stored children:
	// only nodes attached by pattern matching. If Full is set, Kids is the
	// complete materialized child list.
	Kids []*Node
	// Full marks a store reference whose Kids are a complete copy of the
	// stored subtree (set by materialization).
	Full bool
	// Shadowed marks the node invisible to every operator except
	// Illuminate (Definition 6).
	Shadowed bool
}

// NewStoreNode returns a witness node referencing the store node at
// (doc, ord). Kind, tag and value are cached from the columnar view d.
func NewStoreNode(doc store.DocID, ord int32, d *store.Doc) *Node {
	return (*Arena)(nil).StoreNodeOf(doc, ord, d)
}

// NewTempElement returns a fresh temporary element node.
func NewTempElement(tag string) *Node {
	return (*Arena)(nil).TempElement(tag)
}

// NewTempText returns a fresh temporary text node.
func NewTempText(value string) *Node {
	return (*Arena)(nil).TempText(value)
}

// NewTempAttr returns a fresh temporary attribute node; name is stored with
// the "@" prefix like stored attributes.
func NewTempAttr(name, value string) *Node {
	return (*Arena)(nil).TempAttr(name, value)
}

// IsStore reports whether the node references a stored node.
func (n *Node) IsStore() bool { return n.Ord >= 0 }

// Identity returns a string key unique to the underlying node: the store
// coordinates for store references, the temporary ID otherwise. It is the
// key used by identifier-based duplicate elimination.
func (n *Node) Identity() string {
	if n.IsStore() {
		return fmt.Sprintf("s%d:%d", n.Doc, n.Ord)
	}
	return fmt.Sprintf("t%d", n.TempID)
}

// Less orders nodes for document-order sorts: store references order by
// (document, start) — property 3 — and temporary nodes by creation order —
// property 4. Store references sort before temporaries, which only matters
// when a class mixes both (constructed nodes are "later" than base data).
func Less(a, b *Node) bool {
	as, bs := a.IsStore(), b.IsStore()
	switch {
	case as && bs:
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		return a.Ord < b.Ord
	case as:
		return true
	case bs:
		return false
	default:
		return a.TempID < b.TempID
	}
}

// Attach links child under parent, keeping Parent pointers consistent.
func Attach(parent, child *Node) {
	child.Parent = parent
	parent.Kids = append(parent.Kids, child)
}

// Walk visits the subtree rooted at n in pre-order, including shadowed
// nodes, until fn returns false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, k := range n.Kids {
		if !k.Walk(fn) {
			return false
		}
	}
	return true
}

// classBucket is one logical class of a tree: the label and its member
// nodes, in the order they were classified (pattern matching classifies in
// document order). Trees carry a handful of classes, so a linear scan over
// a small slice beats a map — and a tree with no classes costs nothing.
type classBucket struct {
	lcl     int
	members []*Node
}

// lcInline is the number of class buckets a tree stores inline before the
// class table spills to the heap. Witness trees bind a handful of classes
// (one per classified pattern node), so four buckets cover the common case
// without any table allocation.
const lcInline = 4

// Tree is one witness tree together with its logical class reduction.
// Trees are always handled by pointer; copying a Tree value would alias
// the inline class-table backing below.
type Tree struct {
	Root *Node
	// lc is the class table; buckets appear in first-classification order.
	// Backed by lc0 until it outgrows it.
	lc  []classBucket
	lc0 [lcInline]classBucket
	// mspill is a bump block member slices are carved from: a fresh class's
	// single-member slice comes from here (full-slice-capped, so growing a
	// class reallocates instead of stomping the neighbour). Most classes
	// stay singletons, so this turns one allocation per class into one per
	// memberSpill classes.
	mspill []*Node
	// arena is the allocator node copies of this tree draw from (nil =
	// plain new). It rides along with the tree so physical operators
	// deep in the call graph allocate from the owning run's arena without
	// signature plumbing.
	arena *Arena
	// frozen marks the tree as shared between consumers: it must not be
	// mutated, only read or copied (Mutable). Set by Freeze at DAG
	// fan-out points; never cleared.
	frozen bool
}

// memberSpill is the size of the member bump block; see Tree.mspill.
const memberSpill = 16

// NewTree returns a tree rooted at root with an empty class table and no
// arena (copies use plain new).
func NewTree(root *Node) *Tree {
	return &Tree{Root: root}
}

// Arena returns the arena this tree's copies allocate from; nil means
// plain new. Operators use it to allocate sibling nodes (join roots,
// constructed elements) into the same run-scoped slabs.
func (t *Tree) Arena() *Arena { return t.arena }

// Freeze marks the tree shared: from now on it must not be mutated.
// Operators needing to restructure it obtain a private copy via Mutable.
// Freezing is idempotent and never reversed — a frozen tree may be read
// (and copied) concurrently, provided the freeze happened-before the reads
// (the evaluator freezes before publishing a result to other consumers).
func (t *Tree) Freeze() { t.frozen = true }

// Frozen reports whether the tree is shared (copy before mutating).
func (t *Tree) Frozen() bool { return t.frozen }

// Mutable returns a tree the caller may mutate: t itself when unfrozen
// (single consumer owns it), a private deep copy otherwise.
func (t *Tree) Mutable() *Tree {
	if !t.frozen {
		return t
	}
	nt, _ := t.cloneTree()
	return nt
}

// MutableWithMapping is Mutable for callers holding pointers at t's nodes:
// the returned NodeMap translates original nodes to their counterparts in
// the returned tree (the identity when no copy was needed).
func (t *Tree) MutableWithMapping() (*Tree, NodeMap) {
	if !t.frozen {
		return t, NodeMap{}
	}
	return t.cloneTree()
}

// bucket returns the members slice index for lcl, or -1.
func (t *Tree) bucket(lcl int) int {
	for i := range t.lc {
		if t.lc[i].lcl == lcl {
			return i
		}
	}
	return -1
}

// AddToClass records n as a member of logical class lcl.
func (t *Tree) AddToClass(lcl int, n *Node) {
	if lcl <= 0 {
		return
	}
	if i := t.bucket(lcl); i >= 0 {
		t.lc[i].members = append(t.lc[i].members, n)
		return
	}
	if t.lc == nil {
		t.lc = t.lc0[:0]
	}
	t.lc = append(t.lc, classBucket{lcl: lcl, members: t.newMembers(n)})
}

// Grow makes room for n more members of class lcl, so that a builder that
// knows how many nodes it is about to classify pays for one member list,
// not for one that doubles. A single member is left to AddToClass, which
// carves it from the spill block.
func (t *Tree) Grow(lcl, n int) {
	if lcl <= 0 || n < 2 {
		return
	}
	if i := t.bucket(lcl); i >= 0 {
		t.lc[i].members = slices.Grow(t.lc[i].members, n)
		return
	}
	if t.lc == nil {
		t.lc = t.lc0[:0]
	}
	t.lc = append(t.lc, classBucket{lcl: lcl, members: make([]*Node, 0, n)})
}

// newMembers carves a one-element member slice for n out of the spill
// block, starting a fresh block when the current one is full. The slice is
// full-slice-capped: appending a second member reallocates it onto the
// heap, leaving the spill block untouched.
func (t *Tree) newMembers(n *Node) []*Node {
	if len(t.mspill) == cap(t.mspill) {
		t.mspill = make([]*Node, 0, memberSpill)
	}
	t.mspill = append(t.mspill, n)
	return t.mspill[len(t.mspill)-1 : len(t.mspill) : len(t.mspill)]
}

// Class returns the active (non-shadowed) members of class lcl. The result
// aliases internal state when no member is shadowed and must not be
// modified by callers.
func (t *Tree) Class(lcl int) []*Node {
	i := t.bucket(lcl)
	if i < 0 {
		return nil
	}
	members := t.lc[i].members
	shadowed := 0
	for _, m := range members {
		if m.Shadowed {
			shadowed++
		}
	}
	if shadowed == 0 {
		return members
	}
	out := make([]*Node, 0, len(members)-shadowed)
	for _, m := range members {
		if !m.Shadowed {
			out = append(out, m)
		}
	}
	return out
}

// ClassAll returns every member of class lcl including shadowed nodes.
func (t *Tree) ClassAll(lcl int) []*Node {
	if i := t.bucket(lcl); i >= 0 {
		return t.lc[i].members
	}
	return nil
}

// Classes returns the labels present in the tree, sorted.
func (t *Tree) Classes() []int {
	out := make([]int, 0, len(t.lc))
	for i := range t.lc {
		out = append(out, t.lc[i].lcl)
	}
	sort.Ints(out)
	return out
}

// Singleton returns the single active member of class lcl, or an error if
// the class does not bind to exactly one node — the per-operator
// requirement stated in Section 2.3.
func (t *Tree) Singleton(lcl int) (*Node, error) {
	m := t.Class(lcl)
	if len(m) != 1 {
		return nil, fmt.Errorf("seq: logical class %d binds to %d nodes, need exactly 1", lcl, len(m))
	}
	return m[0], nil
}

// ClassOf returns the labels whose class contains n.
func (t *Tree) ClassOf(n *Node) []int {
	var out []int
	for i := range t.lc {
		for _, m := range t.lc[i].members {
			if m == n {
				out = append(out, t.lc[i].lcl)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// RemoveFromClasses removes n (by pointer identity) from every class.
func (t *Tree) RemoveFromClasses(n *Node) {
	for i := range t.lc {
		members := t.lc[i].members
		for j, m := range members {
			if m == n {
				t.lc[i].members = append(members[:j:j], members[j+1:]...)
				break
			}
		}
	}
}

// nodeMapLinearMax is the subtree size above which NodeMap switches from a
// linear pointer scan to a hash map. Witness trees are typically a handful
// of nodes, where scanning a pair of slices beats allocating a map.
const nodeMapLinearMax = 64

// NodeMap translates original nodes to their copies after a deep copy
// (CopySubtree, CloneWithMapping, MutableWithMapping). The zero NodeMap is
// the identity. Nodes not covered by the copy map to themselves — the
// caller's pointer is already the right one.
type NodeMap struct {
	orig, cp []*Node         // parallel pre-order pairs
	m        map[*Node]*Node // built once the pair list outgrows linear scan
}

// Get returns the copy corresponding to n, or n itself when n was not part
// of the copied subtree (including the identity NodeMap).
func (nm NodeMap) Get(n *Node) *Node {
	if nm.m != nil {
		if c, ok := nm.m[n]; ok {
			return c
		}
		return n
	}
	for i, o := range nm.orig {
		if o == n {
			return nm.cp[i]
		}
	}
	return n
}

// add records one original/copy pair.
func (nm *NodeMap) add(o, c *Node) {
	nm.orig = append(nm.orig, o)
	nm.cp = append(nm.cp, c)
}

// seal switches to map lookups when the pair list is large.
func (nm *NodeMap) seal() {
	if len(nm.orig) <= nodeMapLinearMax {
		return
	}
	nm.m = make(map[*Node]*Node, len(nm.orig))
	for i, o := range nm.orig {
		nm.m[o] = nm.cp[i]
	}
}

// copySubtree deep-copies the subtree under n into nodes and exactly sized
// child lists from s, recording original/copy pairs in nm.
func copySubtree(s *Slab, n, parent *Node, nm *NodeMap) *Node {
	c := s.node()
	*c = *n
	c.Parent = parent
	nm.add(n, c)
	if len(n.Kids) == 0 {
		c.Kids = nil
		return c
	}
	c.Kids = s.Kids(len(n.Kids))[:len(n.Kids)]
	for i, k := range n.Kids {
		c.Kids[i] = copySubtree(s, k, c, nm)
	}
	return c
}

// CopySubtree deep-copies the subtree rooted at n, allocating from a (nil
// = plain new), and returns the copied root plus the original→copy
// mapping. Store references keep their coordinates; temporary nodes keep
// their TempIDs (a copy denotes the same logical nodes).
func CopySubtree(a *Arena, n *Node) (*Node, NodeMap) {
	var nm NodeMap
	s := a.Hold()
	root := copySubtree(s, n, nil, &nm)
	a.Release(s)
	nm.seal()
	return root, nm
}

// cloneTree deep-copies the tree and rebuilds its class table against the
// copies. The copy is unfrozen and draws from the same arena.
func (t *Tree) cloneTree() (*Tree, NodeMap) {
	var nm NodeMap
	s := t.arena.Hold()
	root := copySubtree(s, t.Root, nil, &nm)
	t.arena.Release(s)
	nm.seal()
	nt := &Tree{Root: root, arena: t.arena}
	if len(t.lc) > 0 {
		if len(t.lc) <= lcInline {
			nt.lc = nt.lc0[:len(t.lc)]
		} else {
			nt.lc = make([]classBucket, len(t.lc))
		}
		// One backing array for all member slices of the copy; full-slice
		// caps keep a later AddToClass on one class from overwriting the
		// next class's members.
		total := 0
		for i := range t.lc {
			total += len(t.lc[i].members)
		}
		backing := make([]*Node, 0, total)
		for i, b := range t.lc {
			start := len(backing)
			for _, m := range b.members {
				// Class members detached from the tree structure keep the
				// original pointer (cannot happen with well-formed trees,
				// but do not silently drop data) — Get's fallback.
				backing = append(backing, nm.Get(m))
			}
			nt.lc[i] = classBucket{lcl: b.lcl, members: backing[start:len(backing):len(backing)]}
		}
	}
	return nt, nm
}

// Clone returns a deep copy of the tree: fresh Node structs wired
// identically, with the class table rebuilt to point at the copies. Store
// references keep their coordinates; temporary nodes keep their TempIDs
// (a clone denotes the same logical nodes).
func (t *Tree) Clone() *Tree {
	nt, _ := t.cloneTree()
	return nt
}

// CloneWithMapping deep-copies the tree like Clone and additionally returns
// the original-node → copied-node mapping, which operators that must keep
// addressing specific nodes across the copy (extension matching, Flatten,
// Shadow) use to re-locate their targets.
func (t *Tree) CloneWithMapping() (*Tree, NodeMap) {
	return t.cloneTree()
}

// Detach removes child from its parent's kid list (pointer identity) and
// clears its Parent link. It does not touch class membership.
func Detach(child *Node) {
	p := child.Parent
	if p == nil {
		return
	}
	for i, k := range p.Kids {
		if k == child {
			p.Kids = append(p.Kids[:i:i], p.Kids[i+1:]...)
			break
		}
	}
	child.Parent = nil
}

// Seq is a sequence of witness trees — the value flowing along every
// algebra edge. Order is significant (document order of the results).
type Seq []*Tree

// Clone deep-copies every tree in the sequence.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	for i, t := range s {
		out[i] = t.Clone()
	}
	return out
}

// Freeze marks every tree in the sequence shared. The evaluator calls it
// once before handing the sequence to multiple consumers; it must
// happen-before any consumer reads the trees (the evaluator publishes
// under its memo lock / future close).
func (s Seq) Freeze() {
	for _, t := range s {
		t.frozen = true
	}
}

// Alias returns a fresh slice sharing the frozen trees — the per-consumer
// handout at DAG fan-out points. Each consumer owns its slice (it may
// filter, reorder, or replace elements) while the trees themselves stay
// shared until a consumer needs a Mutable copy.
func (s Seq) Alias() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}
