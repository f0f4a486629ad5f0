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
// A tree is owned by the one operator it is handed to, which may
// restructure it in place. An operator that needs a tree more than once —
// a join pairing it with several partners — uses a copy (Clone,
// CloneWithMapping) for every use but the last.
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
	// Kids are the node's children within this witness tree. A store
	// reference that is not Full stands for its whole stored subtree: its
	// Kids are only the nodes pattern matching attached below it (stored
	// children or descendants, each in the classes it was matched into),
	// scaffolding rather than content, and serializing or matching below
	// it reads the columns. If Full is set, Kids is the complete
	// materialized child list.
	Kids []*Node
	// Full marks a store reference whose Kids are a complete copy of the
	// stored subtree, made by the baselines' early materialization.
	Full bool
	// Shadowed marks the node invisible to every operator except
	// Illuminate (Definition 6).
	Shadowed bool
	// kept is Tree.Project's scratch mark, set and cleared within one call
	// on nodes of a tree the caller owns.
	kept bool
}

// NewStoreNode returns a witness node referencing the store node at
// (doc, ord). Kind, tag and value are cached from the columnar view d.
func NewStoreNode(doc store.DocID, ord int32, d *store.Doc) *Node {
	return (*Slab)(nil).StoreNodeOf(doc, ord, d)
}

// NewTempElement returns a fresh temporary element node.
func NewTempElement(tag string) *Node {
	return (*Slab)(nil).TempElement(tag)
}

// NewTempText returns a fresh temporary text node.
func NewTempText(value string) *Node {
	return (*Slab)(nil).TempText(value)
}

// NewTempAttr returns a fresh temporary attribute node; tag is its name as
// stored, with the "@" prefix like stored attributes.
func NewTempAttr(tag, value string) *Node {
	return (*Slab)(nil).TempAttr(tag, value)
}

// IsStore reports whether the node references a stored node.
func (n *Node) IsStore() bool { return n.Ord >= 0 }

// Key is the identity of the node a witness node stands for, as a
// comparable value: the document and ordinal of a store reference, or the
// temporary ID. Copies of a node (Clone) share its key, and map
// keys built from it cost no allocation — it is what identifier-based
// duplicate elimination, the identity join and grouping hash on.
type Key struct {
	Doc  store.DocID
	Ord  int32
	Temp int64
}

// Key returns the identity of the node n stands for.
func (n *Node) Key() Key {
	if n.IsStore() {
		return Key{Doc: n.Doc, Ord: n.Ord}
	}
	return Key{Ord: -1, Temp: n.TempID}
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

// Attach is Slab.Attach for a caller holding no slab: the grown child
// list comes from the heap.
func Attach(parent, child *Node) {
	(*Slab)(nil).Attach(parent, child)
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
// (one per classified pattern node, plus a join root and the right side's
// classes once stitched), so six buckets cover the common case without any
// table allocation: on the Fig. 15 workload, four left one tree in four
// spilling.
const lcInline = 6

// Tree is one witness tree together with its logical class reduction.
// Trees are always handled by pointer; copying a Tree value would alias
// the inline class-table backing below.
type Tree struct {
	Root *Node
	// lc is the class table; buckets appear in first-classification order.
	// Backed by lc0 until it outgrows it.
	lc  []classBucket
	lc0 [lcInline]classBucket
	// m0 holds the first singleton classes' members inline: a fresh
	// class's one-member slice is carved from m0[:m0used] (full-slice-
	// capped, so growing a class reallocates instead of stomping the
	// neighbour), and only once m0 is used up from the bump block mspill.
	// Most classes stay singletons, so most trees never allocate a member
	// list at all.
	m0     [memberInline]*Node
	m0used int
	mspill []*Node
	// arena is the allocator node copies of this tree draw from (nil =
	// plain new). It rides along with the tree so physical operators
	// deep in the call graph allocate from the owning run's arena without
	// signature plumbing.
	arena *Arena
}

// memberInline is the number of singleton members a tree holds inline,
// and memberSpill the size of the bump block it spills to; see Tree.m0.
const (
	memberInline = 6
	memberSpill  = 16
)

// NewTree returns a tree rooted at root with an empty class table and no
// arena (copies use plain new).
func NewTree(root *Node) *Tree {
	return (*Slab)(nil).NewTree(root)
}

// Arena returns the arena this tree's copies allocate from; nil means
// plain new. Operators use it to allocate sibling nodes (join roots,
// constructed elements) into the same run-scoped slabs.
func (t *Tree) Arena() *Arena { return t.arena }

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

// newMembers carves a one-element member slice for n out of the inline
// members, then out of the spill block, starting a fresh block when the
// current one is full. The slice is full-slice-capped: appending a second
// member reallocates it onto the heap, leaving its neighbours untouched.
func (t *Tree) newMembers(n *Node) []*Node {
	if i := t.m0used; i < memberInline {
		t.m0used++
		t.m0[i] = n
		return t.m0[i : i+1 : i+1]
	}
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

// Project restructures the tree, which the caller must own, for the
// Project operator: the members of the classes listed in keep (a label
// listed twice is kept once) move, with their witness subtrees, under the
// root, in pre-order — a kept node inside a kept subtree stays where it
// is — and every class not listed leaves the class table, as does every
// empty one. The root itself is always kept. New child lists come from s; buf
// is scratch the call returns for reuse by the next tree (nil at first),
// so projecting a sequence allocates per call, not per tree.
func (t *Tree) Project(s *Slab, keep []int, buf []*Node) []*Node {
	t.markKept(keep, true)
	tops := collectTops(t.Root, buf[:0])
	t.markKept(keep, false)
	root := t.Root
	if len(tops) > cap(root.Kids) {
		root.Kids = s.Kids(len(tops))
	}
	root.Kids = append(root.Kids[:0], tops...)
	for _, n := range tops {
		n.Parent = root
	}
	w := 0
	for _, b := range t.lc {
		if len(b.members) > 0 && slices.Contains(keep, b.lcl) {
			t.lc[w] = b
			w++
		}
	}
	clear(t.lc[w:])
	t.lc = t.lc[:w]
	return tops
}

// markKept sets the kept mark of every member of the classes in keep to v.
func (t *Tree) markKept(keep []int, v bool) {
	for _, b := range t.lc {
		if slices.Contains(keep, b.lcl) {
			for _, m := range b.members {
				m.kept = v
			}
		}
	}
}

// collectTops appends the kept nodes below n that have no kept ancestor
// below n, in pre-order.
func collectTops(n *Node, tops []*Node) []*Node {
	for _, k := range n.Kids {
		if k.kept {
			tops = append(tops, k)
		} else {
			tops = collectTops(k, tops)
		}
	}
	return tops
}

// Stitch turns the tree, which the caller must own, into a join output: a
// fresh root (tag rootTag, class rootLCL when positive) from s gets the
// old root as its first child and the roots of rights after it, and the
// class tables of rights are absorbed — their member lists are taken
// over, not copied, so a right tree must be owned and must not change
// afterwards; it stays readable (only its root's Parent moves), so copies
// may still be taken from it. Per class, members come in the order root,
// this tree's, then each right tree's; empty classes are dropped. Nothing
// but the root and its child list is allocated, and those come from s.
func (t *Tree) Stitch(s *Slab, rootTag string, rootLCL int, rights []*Tree) {
	root := s.TempElement(rootTag)
	root.Kids = append(s.Kids(1+len(rights)), t.Root)
	t.Root.Parent = root
	for _, r := range rights {
		r.Root.Parent = root
		root.Kids = append(root.Kids, r.Root)
	}
	t.Root = root
	w := 0
	for _, b := range t.lc {
		if len(b.members) > 0 {
			t.lc[w] = b
			w++
		}
	}
	clear(t.lc[w:])
	t.lc = t.lc[:w]
	if rootLCL > 0 {
		if i := t.bucket(rootLCL); i >= 0 {
			t.lc[i].members = append([]*Node{root}, t.lc[i].members...)
		} else {
			t.AddToClass(rootLCL, root)
		}
	}
	for _, r := range rights {
		for _, b := range r.lc {
			switch i := t.bucket(b.lcl); {
			case len(b.members) == 0:
			case i >= 0:
				t.lc[i].members = append(t.lc[i].members, b.members...)
			default:
				if t.lc == nil {
					t.lc = t.lc0[:0]
				}
				t.lc = append(t.lc, b)
			}
		}
	}
}

// nodeMapLinearMax is the subtree size above which NodeMap switches from a
// linear pointer scan to a hash map. Witness trees are typically a handful
// of nodes, where scanning a pair of slices beats allocating a map.
const nodeMapLinearMax = 64

// NodeMap translates original nodes to their copies after a deep copy
// (CopySubtree, CloneWithMapping). The zero NodeMap is
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

// CopySubtree deep-copies the subtree rooted at n, allocating from the
// slab (nil = plain new), and returns the copied root plus the
// original→copy mapping. Store references keep their coordinates;
// temporary nodes keep their TempIDs (a copy denotes the same logical
// nodes).
func (s *Slab) CopySubtree(n *Node) (*Node, NodeMap) {
	var nm NodeMap
	root := copySubtree(s, n, nil, &nm)
	nm.seal()
	return root, nm
}

// cloneTree deep-copies the tree and rebuilds its class table against the
// copies. The copy draws from the same arena.
func (t *Tree) cloneTree() (*Tree, NodeMap) {
	var nm NodeMap
	s := t.arena.Hold()
	root := copySubtree(s, t.Root, nil, &nm)
	nt := s.NewTree(root)
	t.arena.Release(s)
	nm.seal()
	if len(t.lc) > 0 {
		if len(t.lc) <= lcInline {
			nt.lc = nt.lc0[:len(t.lc)]
		} else {
			nt.lc = make([]classBucket, len(t.lc))
		}
		// One backing array for all member slices of the copy — the inline
		// members when they fit; full-slice caps keep a later AddToClass on
		// one class from overwriting the next class's members.
		total := 0
		for i := range t.lc {
			total += len(t.lc[i].members)
		}
		var backing []*Node
		if total <= memberInline {
			backing, nt.m0used = nt.m0[:0:total], total
		} else {
			backing = make([]*Node, 0, total)
		}
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
