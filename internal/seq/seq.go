// Package seq implements the intermediate results flowing between TLC
// algebra operators: sequences of witness trees whose nodes either
// reference stored nodes or are temporary nodes created during evaluation
// (join roots, aggregate results, constructed elements).
//
// Each tree carries its logical class reduction (Definition 4): a small
// table from logical class labels to the member nodes within the tree.
// Operators address nodes exclusively through that table, which is what
// lets them treat heterogeneous sets of trees homogeneously — and what lets
// a node be an index rather than a pointer. Nodes live in their arena's
// node space and are named by NodeID; parents, children and class members
// are NodeIDs, so nothing a tree is built from is scanned by the collector
// (DESIGN.md §10).
//
// A tree is owned by the one operator it is handed to, which may
// restructure it in place. An operator that needs a tree more than once —
// a join pairing it with several partners — uses a copy (Clone) for every
// use but the last.
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
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// tempCounter issues temporary node identifiers (properties 1 and 4 of
// Figure 13). It is atomic so concurrent queries and tests may build trees
// concurrently.
var tempCounter atomic.Int64

// NodeID names a witness node in its arena's node space. NoNode, the zero
// value, names none: the Parent of a root.
type NodeID int32

// NoNode is the NodeID of no node.
const NoNode NodeID = 0

// TagID names a temporary node's tag in the process-wide tag table, so
// that a temporary node stores four bytes instead of a string.
type TagID int32

// tagTable is one version of the tag table; a new tag makes a new version,
// so that a lookup reads the current one without a lock.
type tagTable struct {
	ids   map[string]TagID
	names []string
}

var tags struct {
	mu    sync.Mutex // serializes new versions
	table atomic.Pointer[tagTable]
}

// textTag is the tag of temporary text nodes.
var textTag = Intern(xmltree.TextTag)

// Intern returns the TagID of name, adding it to the tag table on first
// use.
func Intern(name string) TagID {
	if id, ok := currentTags().ids[name]; ok {
		return id
	}
	tags.mu.Lock()
	defer tags.mu.Unlock()
	old := currentTags()
	if id, ok := old.ids[name]; ok {
		return id
	}
	id := TagID(len(old.names))
	t := &tagTable{ids: map[string]TagID{name: id}, names: append(slices.Clip(old.names), name)}
	maps.Copy(t.ids, old.ids)
	tags.table.Store(t)
	return id
}

// currentTags returns the current version of the tag table.
func currentTags() *tagTable {
	if t := tags.table.Load(); t != nil {
		return t
	}
	return &tagTable{}
}

// TagName returns the name id was interned from.
func TagName(id TagID) string { return currentTags().names[id] }

// Node is a witness tree node. A node either references a stored node
// (Ord >= 0) or is a temporary node (Ord < 0, TempID > 0). It holds no
// pointer.
type Node struct {
	// Doc and Ord locate the referenced store node; Ord is -1 for
	// temporary nodes.
	Doc store.DocID
	Ord int32
	// TempID is the temporary identifier; 0 for store references.
	TempID int64
	// Parent is the node's parent within this witness tree, NoNode at the
	// root.
	Parent NodeID
	// kids, nkids and ckids are the node's child list in the arena's list
	// space: reference, length and capacity. A store reference that is not
	// Full stands for its whole stored subtree: its children are only the
	// nodes pattern matching attached below it (stored children or
	// descendants, each in the classes it was matched into), scaffolding
	// rather than content, and serializing or matching below it reads the
	// columns. If Full is set, they are the complete materialized child
	// list.
	kids, nkids, ckids int32
	// tag and val are a temporary node's tag and the offset of its value
	// in the arena's value bytes. A store reference's tag and value are
	// read from the columns.
	tag TagID
	val int32
	// fwd is the node's copy while a copy of its subtree is being taken
	// (NodeMap), NoNode otherwise.
	fwd NodeID
	// Kind is the node's kind, for a store reference the stored node's.
	Kind xmltree.Kind
	// Full marks a store reference whose children are a complete copy of
	// the stored subtree, made by the baselines' early materialization.
	Full bool
	// Shadowed marks the node invisible to every operator except
	// Illuminate (Definition 6).
	Shadowed bool
	// kept is Tree.Project's scratch mark, set and cleared within one call
	// on nodes of a tree the caller owns.
	kept bool
}

// NewStoreNode returns a witness node referencing the store node at
// (doc, ord), outside any arena; NewTree roots a tree at a copy of it.
func NewStoreNode(doc store.DocID, ord int32, d *store.Doc) *Node {
	plainNodesTotal.Add(1)
	return &Node{Doc: doc, Ord: ord, Kind: d.Kind(ord)}
}

// IsStore reports whether the node references a stored node.
func (n *Node) IsStore() bool { return n.Ord >= 0 }

// Key is the identity of the node a witness node stands for, as a
// comparable value: the document and ordinal of a store reference, or the
// temporary ID. Copies of a node (Clone) share its key, and map keys built
// from it cost no allocation — it is what identifier-based duplicate
// elimination, the identity join and grouping hash on.
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

// Tag returns the tag of node id: for a store reference the stored tag,
// read from st.
func (a *Arena) Tag(st *store.Store, id NodeID) string {
	n := a.Node(id)
	if n.IsStore() {
		return st.Doc(n.Doc).Tag(n.Ord)
	}
	return TagName(n.tag)
}

// Value returns the value of an attribute or text node id: for a store
// reference the stored value, read from st.
func (a *Arena) Value(st *store.Store, id NodeID) string {
	n := a.Node(id)
	if n.IsStore() {
		return st.Doc(n.Doc).Value(n.Ord)
	}
	return a.textAt(n.val)
}

// Walk visits the subtree rooted at n in pre-order, including shadowed
// nodes, until fn returns false.
func (a *Arena) Walk(n NodeID, fn func(NodeID) bool) bool {
	if !fn(n) {
		return false
	}
	for _, k := range a.Kids(n) {
		if !a.Walk(k, fn) {
			return false
		}
	}
	return true
}

// Detach removes child from its parent's child list and clears its Parent
// link. It does not touch class membership.
func (a *Arena) Detach(child NodeID) {
	c := a.Node(child)
	if c.Parent == NoNode {
		return
	}
	p := a.Node(c.Parent)
	kids := a.list(p.kids, p.nkids)
	if i := slices.Index(kids, child); i >= 0 {
		copy(kids[i:], kids[i+1:])
		p.nkids--
	}
	c.Parent = NoNode
}

// bucket is one logical class of a tree: the label and its member list in
// the arena's list space (reference, length, capacity), members in the
// order they were classified (pattern matching classifies in document
// order). Trees carry a handful of classes, so a linear scan over a small
// table beats a map — and a tree with no classes costs nothing.
type bucket struct {
	lcl, ref, n, cap int32
}

// bucketIDs is the number of list-space slots a spilled bucket takes.
const bucketIDs = int32(unsafe.Sizeof(bucket{}) / unsafe.Sizeof(NoNode))

// lcInline is the number of class buckets a tree stores inline before the
// class table spills to the arena's list space. Witness trees bind a
// handful of classes (one per classified pattern node, plus a join root
// and the right side's classes once stitched), so six buckets cover the
// common case: on the Fig. 15 workload, four left one tree in four
// spilling.
const lcInline = 6

// Tree is one witness tree together with its logical class reduction. It
// holds no pointer: it lives in a tree block (Slab.NewTree) whose first
// word names the arena, found from the tree's slot in the block. Trees are
// handled by pointer; a Tree value outside its block has no arena.
type Tree struct {
	Root NodeID
	// The class table holds nlc buckets, in first-classification order:
	// lc0[:nlc] until it outgrows lc0, from then on (scap > 0) a run of
	// buckets with room for scap in the arena's list space at reference
	// spill.
	nlc, spill, scap int32
	slot             int32
	lc0              [lcInline]bucket
}

// NewTree returns a tree in an arena of its own, rooted at a copy of root.
func NewTree(root *Node) *Tree {
	s := (*Arena)(nil).Hold()
	id, n := s.node()
	*n = Node{Doc: root.Doc, Ord: root.Ord, TempID: root.TempID, Kind: root.Kind, Shadowed: root.Shadowed}
	t := s.NewTree(id)
	s.a.Release(s)
	return t
}

// Arena returns the arena the tree's nodes live in. Operators allocate
// sibling nodes (join roots, constructed elements) from it.
func (t *Tree) Arena() *Arena {
	return (*treeBlock)(unsafe.Add(unsafe.Pointer(t), -int(treesOffset+uintptr(t.slot)*treeSize))).arena
}

// Node returns the node id of the tree.
func (t *Tree) Node(id NodeID) *Node { return t.Arena().Node(id) }

// Kids returns the children of node id; see Arena.Kids.
func (t *Tree) Kids(id NodeID) []NodeID { return t.Arena().Kids(id) }

// Walk visits the subtree rooted at id; see Arena.Walk.
func (t *Tree) Walk(id NodeID, fn func(NodeID) bool) bool { return t.Arena().Walk(id, fn) }

// Content returns the textual content of node id; see Arena.Content.
func (t *Tree) Content(st *store.Store, id NodeID) string { return t.Arena().Content(st, id) }

// table returns the class table.
func (t *Tree) table() []bucket {
	if t.scap > 0 {
		ids := t.Arena().list(t.spill, t.scap*bucketIDs)
		return unsafe.Slice((*bucket)(unsafe.Pointer(&ids[0])), t.scap)[:t.nlc]
	}
	return t.lc0[:t.nlc]
}

// bucketFor returns the bucket of lcl, appending an empty one when the
// tree has none.
func (t *Tree) bucketFor(lcl int) *bucket {
	if b := t.bucket(lcl); b != nil {
		return b
	}
	return t.newBucket(lcl)
}

// keepBuckets compacts the class table to the buckets keep accepts.
func (t *Tree) keepBuckets(keep func(bucket) bool) {
	tab, w := t.table(), 0
	for _, b := range tab {
		if keep(b) {
			tab[w] = b
			w++
		}
	}
	t.nlc = int32(w)
}

// bucket returns the bucket of lcl, or nil.
func (t *Tree) bucket(lcl int) *bucket {
	tab := t.table()
	for i := range tab {
		if tab[i].lcl == int32(lcl) {
			return &tab[i]
		}
	}
	return nil
}

// newBucket appends an empty bucket for lcl to the class table.
func (t *Tree) newBucket(lcl int) *bucket {
	if t.scap == 0 && t.nlc < lcInline {
		t.nlc++
		t.lc0[t.nlc-1] = bucket{lcl: int32(lcl)}
		return &t.lc0[t.nlc-1]
	}
	if t.nlc == max(t.scap, lcInline) {
		// Move the table to a run of list space with room for as many
		// buckets again.
		a, old := t.Arena(), t.table()
		t.spill, t.scap = a.alloc(2*t.nlc*bucketIDs), 2*t.nlc
		copy(t.table()[:len(old)], old)
	}
	t.nlc++
	tab := t.table()
	tab[t.nlc-1] = bucket{lcl: int32(lcl)}
	return &tab[t.nlc-1]
}

// AddToClass records n as a member of logical class lcl.
func (t *Tree) AddToClass(lcl int, n NodeID) {
	if lcl > 0 {
		b := t.bucketFor(lcl)
		t.Arena().push(&b.ref, &b.n, &b.cap, n)
	}
}

// Grow makes room for n more members of class lcl, so that a builder that
// knows how many nodes it is about to classify pays for one member list,
// not for one that doubles.
func (t *Tree) Grow(lcl, n int) {
	if lcl > 0 && n > 1 {
		b := t.bucketFor(lcl)
		t.Arena().reserve(&b.ref, &b.n, &b.cap, int32(n))
	}
}

// Class returns the active (non-shadowed) members of class lcl. The result
// aliases the arena's list space when no member is shadowed and must not be
// modified by callers.
func (t *Tree) Class(lcl int) []NodeID {
	members := t.ClassAll(lcl)
	shadowed := 0
	for _, m := range members {
		if t.Node(m).Shadowed {
			shadowed++
		}
	}
	if shadowed == 0 {
		return members
	}
	out := make([]NodeID, 0, len(members)-shadowed)
	for _, m := range members {
		if !t.Node(m).Shadowed {
			out = append(out, m)
		}
	}
	return out
}

// ClassAll returns every member of class lcl including shadowed nodes.
func (t *Tree) ClassAll(lcl int) []NodeID {
	if b := t.bucket(lcl); b != nil {
		return t.Arena().list(b.ref, b.n)
	}
	return nil
}

// Classes returns the labels present in the tree, sorted.
func (t *Tree) Classes() []int {
	tab := t.table()
	out := make([]int, len(tab))
	for i, b := range tab {
		out[i] = int(b.lcl)
	}
	sort.Ints(out)
	return out
}

// Singleton returns the single active member of class lcl, or an error if
// the class does not bind to exactly one node — the per-operator
// requirement stated in Section 2.3.
func (t *Tree) Singleton(lcl int) (*Node, error) {
	id, err := t.SingletonID(lcl)
	if err != nil {
		return nil, err
	}
	return t.Node(id), nil
}

// SingletonID is Singleton returning the member's NodeID.
func (t *Tree) SingletonID(lcl int) (NodeID, error) {
	m := t.Class(lcl)
	if len(m) != 1 {
		return NoNode, fmt.Errorf("seq: logical class %d binds to %d nodes, need exactly 1", lcl, len(m))
	}
	return m[0], nil
}

// RemoveFromClasses removes n from every class. Member lists shrink in
// place: a caller iterating a class it removes from iterates a copy.
func (t *Tree) RemoveFromClasses(n NodeID) {
	tab := t.table()
	for i := range tab {
		members := t.Arena().list(tab[i].ref, tab[i].n)
		if j := slices.Index(members, n); j >= 0 {
			copy(members[j:], members[j+1:])
			tab[i].n--
		}
	}
}

// Project restructures the tree, which the caller must own, for the
// Project operator: the members of the classes listed in keep (a label
// listed twice is kept once) move, with their witness subtrees, under the
// root, in pre-order — a kept node inside a kept subtree stays where it
// is — and every class not listed leaves the class table, as does every
// empty one. The root itself is always kept. buf is scratch the call
// returns for reuse by the next tree (nil at first), so projecting a
// sequence allocates per call, not per tree.
func (t *Tree) Project(keep []int, buf []NodeID) []NodeID {
	t.markKept(keep, true)
	tops := t.collectTops(t.Root, buf[:0])
	t.markKept(keep, false)
	t.Arena().SetKids(t.Root, tops)
	t.keepBuckets(func(b bucket) bool { return b.n > 0 && slices.Contains(keep, int(b.lcl)) })
	return tops
}

// markKept sets the kept mark of every member of the classes in keep to v.
func (t *Tree) markKept(keep []int, v bool) {
	for _, b := range t.table() {
		if slices.Contains(keep, int(b.lcl)) {
			for _, m := range t.Arena().list(b.ref, b.n) {
				t.Node(m).kept = v
			}
		}
	}
}

// collectTops appends the kept nodes below n that have no kept ancestor
// below n, in pre-order.
func (t *Tree) collectTops(n NodeID, tops []NodeID) []NodeID {
	for _, k := range t.Kids(n) {
		if t.Node(k).kept {
			tops = append(tops, k)
		} else {
			tops = t.collectTops(k, tops)
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
// this tree's, then each right's; empty classes are dropped. A right tree
// of another arena is replaced in rights by its copy in this tree's.
func (t *Tree) Stitch(s *Slab, rootTag TagID, rootLCL int, rights []*Tree) {
	a := t.Arena()
	root := s.TempElement(rootTag)
	r := a.Node(root)
	r.kids, r.ckids = a.alloc(int32(1+len(rights))), int32(1+len(rights))
	a.Attach(root, t.Root)
	for i, rt := range rights {
		rt = s.Import(rt)
		rights[i] = rt
		a.Attach(root, rt.Root)
	}
	t.Root = root
	t.keepBuckets(func(b bucket) bool { return b.n > 0 })
	if rootLCL > 0 {
		b := t.bucketFor(rootLCL)
		a.push(&b.ref, &b.n, &b.cap, root)
		m := a.list(b.ref, b.n)
		copy(m[1:], m)
		m[0] = root
	}
	for _, rt := range rights {
		for _, rb := range rt.table() {
			switch b := t.bucket(int(rb.lcl)); {
			case rb.n == 0:
			case b != nil:
				a.reserve(&b.ref, &b.n, &b.cap, rb.n)
				copy(a.list(b.ref, b.n+rb.n)[b.n:], a.list(rb.ref, rb.n))
				b.n += rb.n
			default:
				*t.newBucket(int(rb.lcl)) = rb
			}
		}
	}
}

// NodeMap translates the nodes of a subtree to their copies while the
// copy is being worked on (CopySubtree, CloneWithMapping): each original
// node records its copy until Release. The zero NodeMap is the identity,
// and nodes outside the copied subtree map to themselves.
type NodeMap struct {
	a    *Arena
	root NodeID
}

// Get returns the copy corresponding to n, or n itself when n was not part
// of the copied subtree (including the identity NodeMap).
func (nm NodeMap) Get(n NodeID) NodeID {
	if nm.a != nil {
		if f := nm.a.Node(n).fwd; f != NoNode {
			return f
		}
	}
	return n
}

// Release ends the mapping; the originals may be copied again after it.
func (nm NodeMap) Release() {
	if nm.a != nil {
		nm.a.Walk(nm.root, func(x NodeID) bool {
			nm.a.Node(x).fwd = NoNode
			return true
		})
	}
}

// copySubtree copies the subtree under n of arena src into nodes and
// exactly sized child lists from s; every original records its copy.
func copySubtree(s *Slab, src *Arena, n, parent NodeID) NodeID {
	id, c := s.node()
	o := src.Node(n)
	*c = Node{Doc: o.Doc, Ord: o.Ord, TempID: o.TempID, Parent: parent, tag: o.tag, val: o.val,
		Kind: o.Kind, Full: o.Full, Shadowed: o.Shadowed}
	if src != s.a {
		c.val = s.a.addText(src.textAt(o.val))
	}
	o.fwd = id
	if o.nkids == 0 {
		return id
	}
	dst := s.a
	ref := dst.alloc(o.nkids)
	for i, k := range src.list(o.kids, o.nkids) {
		dst.list(ref, o.nkids)[i] = copySubtree(s, src, k, id)
	}
	c.kids, c.nkids, c.ckids = ref, o.nkids, o.nkids
	return id
}

// CopySubtree deep-copies the subtree rooted at n into the slab's arena,
// which must be n's, and returns the copied root plus the original→copy
// mapping, which the caller releases. Store references keep their
// coordinates; temporary nodes keep their TempIDs (a copy denotes the
// same logical nodes).
func (s *Slab) CopySubtree(n NodeID) (NodeID, NodeMap) {
	return copySubtree(s, s.a, n, NoNode), NodeMap{a: s.a, root: n}
}

// cloneInto deep-copies the tree into s's arena, with its class table
// rebuilt against the copies, and returns the copy with the mapping from
// the originals, which the caller releases.
func (t *Tree) cloneInto(s *Slab) (*Tree, NodeMap) {
	nt := s.NewTree(copySubtree(s, t.Arena(), t.Root, NoNode))
	nm := NodeMap{a: t.Arena(), root: t.Root}
	for _, b := range t.table() {
		if b.n == 0 {
			continue
		}
		nb := nt.newBucket(int(b.lcl))
		nb.ref, nb.n, nb.cap = s.a.alloc(b.n), b.n, b.n
		members := s.a.list(nb.ref, nb.n)
		for i, m := range t.Arena().list(b.ref, b.n) {
			// A member outside the tree (which well-formed trees do not
			// have) keeps its ID.
			members[i] = nm.Get(m)
		}
	}
	return nt, nm
}

// Import returns t when it lives in the slab's arena, and a copy of it
// there otherwise.
func (s *Slab) Import(t *Tree) *Tree {
	if t.Arena() == s.a {
		return t
	}
	nt, nm := t.cloneInto(s)
	nm.Release()
	return nt
}

// Clone returns a deep copy of the tree in the same arena: fresh nodes
// wired identically, with the class table rebuilt to name the copies.
// Store references keep their coordinates; temporary nodes keep their
// TempIDs (a clone denotes the same logical nodes).
func (t *Tree) Clone() *Tree {
	nt, nm := t.CloneWithMapping()
	nm.Release()
	return nt
}

// CloneWithMapping deep-copies the tree like Clone and additionally returns
// the original-node → copied-node mapping, which operators that must keep
// addressing specific nodes across the copy (extension matching) use to
// re-locate their targets. The caller releases the mapping.
func (t *Tree) CloneWithMapping() (*Tree, NodeMap) {
	s := t.Arena().Hold()
	defer t.Arena().Release(s)
	return t.cloneInto(s)
}

// Seq is a sequence of witness trees — the value flowing along every
// algebra edge. Order is significant (document order of the results).
type Seq []*Tree
