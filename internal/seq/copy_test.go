package seq

import (
	"fmt"
	"reflect"
	"testing"

	"tlc/internal/xmltree"
)

// buildTempTree makes a small tree root(a(b), c) with classes 1:{a}, 2:{b,c}.
func buildTempTree() (tr *Tree, a, b, c NodeID) {
	bl := newBuilder()
	root := bl.el("root")
	a, b, c = bl.el("a"), bl.el("b"), bl.el("c")
	bl.Attach(root, a)
	bl.Attach(a, b)
	bl.Attach(root, c)
	tr = bl.NewTree(root)
	tr.AddToClass(1, a)
	tr.AddToClass(2, b)
	tr.AddToClass(2, c)
	return tr, a, b, c
}

// TestNodeMapCoversDeepChain copies a chain of nodes deeper than a
// witness tree usually is: every original maps to its own copy until the
// mapping is released, and to itself after.
func TestNodeMapCoversDeepChain(t *testing.T) {
	b := newBuilder()
	root := b.el("root")
	cur := root
	nodes := []NodeID{root}
	for i := 0; i < 74; i++ {
		n := b.el(fmt.Sprintf("n%d", i))
		b.Attach(cur, n)
		nodes = append(nodes, n)
		cur = n
	}
	tr := b.NewTree(root)
	for i, n := range nodes {
		tr.AddToClass(i%5, n)
	}
	mt, nm := tr.CloneWithMapping()
	for _, n := range nodes {
		cp := nm.Get(n)
		if cp == n {
			t.Fatalf("node %s not mapped", tr.Arena().Tag(nil, n))
		}
		if mt.Arena().Tag(nil, cp) != tr.Arena().Tag(nil, n) {
			t.Fatalf("mapped to wrong node: %s vs %s", mt.Arena().Tag(nil, cp), tr.Arena().Tag(nil, n))
		}
	}
	nm.Release()
	if nm.Get(nodes[3]) != nodes[3] {
		t.Error("a released mapping still translates")
	}
	for lcl := 0; lcl < 5; lcl++ {
		if len(mt.ClassAll(lcl)) != len(tr.ClassAll(lcl)) {
			t.Errorf("class %d lost members in the copy", lcl)
		}
	}
}

func TestArenaAllocatesAndCounts(t *testing.T) {
	a := NewArena()
	s := a.Hold()
	n := s.TempElement(Intern("x"))
	if a.Tag(nil, n) != "x" {
		t.Fatal("arena node not initialized")
	}
	// Cross the block boundary to count block growth.
	for i := 0; i < blockNodes+5; i++ {
		s.StoreNode(0, int32(i), xmltree.Element)
	}
	a.Release(s)
	st := a.Stats()
	if st.Nodes != int64(blockNodes+6) {
		t.Errorf("arena counted %d nodes, want %d", st.Nodes, blockNodes+6)
	}
	if st.Slabs < 2 {
		t.Errorf("arena used %d blocks, want >= 2 after crossing the block size", st.Slabs)
	}
}

// TestNilArenaFallsBack: a nil arena hands out a slab of a fresh arena of
// its own, so code holding no arena still builds working trees.
func TestNilArenaFallsBack(t *testing.T) {
	var a *Arena
	s := a.Hold()
	n := s.TempText("v")
	if s.a.Value(nil, n) != "v" || s.a.Node(n).IsStore() {
		t.Error("nil arena must still hand out working nodes")
	}
	tr := s.NewTree(n)
	a.Release(s)
	if tr.Arena() == nil || tr.Arena() != s.a {
		t.Error("a tree built from a nil arena's slab must live in that slab's arena")
	}
}

func TestCloneSharesNothing(t *testing.T) {
	tr, a, _, c := buildTempTree()
	cp, nm := tr.CloneWithMapping()
	if nm.Get(a) == a || nm.Get(c) == c {
		t.Fatal("clone mapping must translate to fresh nodes")
	}
	// TempIDs carry over, so the node key stays stable across the copy.
	if tr.Node(a).Key() != cp.Node(nm.Get(a)).Key() {
		t.Errorf("copy changed node key: %v vs %v", tr.Node(a).Key(), cp.Node(nm.Get(a)).Key())
	}
	cc := nm.Get(c)
	nm.Release()
	cp.Arena().Detach(cc)
	if len(tr.Kids(tr.Root)) != 2 {
		t.Error("mutating the clone leaked into the original")
	}
	if got, want := len(cp.ClassAll(2)), len(tr.ClassAll(2)); got != want {
		t.Errorf("clone class sizes differ: %d vs %d", got, want)
	}
}

// TestWitnessBlocksHoldNoPointers pins the representation: a witness node
// and a class member are plain values, so the collector never scans a
// node block or a member list, and no Tree field holds a node pointer.
func TestWitnessBlocksHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[Node](), reflect.TypeFor[NodeID](), reflect.TypeFor[bucket](), reflect.TypeFor[Tree]()} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	if e := reflect.TypeOf((&Tree{}).ClassAll(1)).Elem(); e != reflect.TypeFor[NodeID]() {
		t.Errorf("class members are %v, want NodeID", e)
	}
	node := reflect.TypeFor[*Node]()
	tree := reflect.TypeFor[Tree]()
	for i := range tree.NumField() {
		f := tree.Field(i)
		if mentions(f.Type, node) {
			t.Errorf("Tree.%s (%v) holds node pointers", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether values of typ contain a pointer the
// collector would follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// mentions reports whether typ is target or a slice, array or struct
// holding one.
func mentions(typ, target reflect.Type) bool {
	if typ == target {
		return true
	}
	switch typ.Kind() {
	case reflect.Slice, reflect.Array:
		return mentions(typ.Elem(), target)
	case reflect.Struct:
		for i := range typ.NumField() {
			if mentions(typ.Field(i).Type, target) {
				return true
			}
		}
	}
	return false
}
