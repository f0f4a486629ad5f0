package seq

import (
	"fmt"
	"testing"

	"tlc/internal/xmltree"
)

// buildTempTree makes a small tree root(a(b), c) with classes 1:{a}, 2:{b,c}.
func buildTempTree() (*Tree, *Node, *Node, *Node) {
	root := NewTempElement("root")
	a := NewTempElement("a")
	b := NewTempElement("b")
	c := NewTempElement("c")
	Attach(root, a)
	Attach(a, b)
	Attach(root, c)
	t := NewTree(root)
	t.AddToClass(1, a)
	t.AddToClass(2, b)
	t.AddToClass(2, c)
	return t, a, b, c
}

func TestNodeMapFallsBackToMap(t *testing.T) {
	// Build a chain longer than the linear-scan threshold so the map
	// fallback path is exercised.
	root := NewTempElement("root")
	cur := root
	nodes := []*Node{root}
	for i := 0; i < nodeMapLinearMax+10; i++ {
		n := NewTempElement(fmt.Sprintf("n%d", i))
		Attach(cur, n)
		nodes = append(nodes, n)
		cur = n
	}
	tr := NewTree(root)
	for i, n := range nodes {
		tr.AddToClass(i%5, n)
	}
	mt, nm := tr.CloneWithMapping()
	for _, n := range nodes {
		cp := nm.Get(n)
		if cp == n {
			t.Fatalf("node %s not mapped", n.Tag)
		}
		if cp.Tag != n.Tag {
			t.Fatalf("mapped to wrong node: %s vs %s", cp.Tag, n.Tag)
		}
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
	n := s.TempElement("x")
	if n.Tag != "x" {
		t.Fatal("arena node not initialized")
	}
	// Cross the slab boundary to count slab growth.
	for i := 0; i < slabNodes+5; i++ {
		s.StoreNode(0, int32(i), xmltree.Element, "e", "")
	}
	a.Release(s)
	st := a.Stats()
	if st.Nodes != int64(slabNodes+6) {
		t.Errorf("arena counted %d nodes, want %d", st.Nodes, slabNodes+6)
	}
	if st.Slabs < 2 {
		t.Errorf("arena used %d slabs, want >= 2 after crossing the slab size", st.Slabs)
	}
}

func TestNilArenaFallsBack(t *testing.T) {
	var a *Arena
	s := a.Hold()
	n := s.TempText("v")
	if n.Value != "v" || n.IsStore() {
		t.Error("nil arena must still hand out working nodes")
	}
	tr := s.NewTree(n)
	a.Release(s)
	if tr.Arena() != nil {
		t.Error("nil arena tree must report a nil arena")
	}
}

func TestCloneSharesNothing(t *testing.T) {
	tr, a, _, c := buildTempTree()
	cp, nm := tr.CloneWithMapping()
	if nm.Get(a) == a || nm.Get(c) == c {
		t.Fatal("clone mapping must translate to fresh nodes")
	}
	// TempIDs carry over, so the node key stays stable across the copy.
	if a.Key() != nm.Get(a).Key() {
		t.Errorf("copy changed node key: %v vs %v", a.Key(), nm.Get(a).Key())
	}
	Detach(nm.Get(c))
	if len(tr.Root.Kids) != 2 {
		t.Error("mutating the clone leaked into the original")
	}
	if got, want := len(cp.ClassAll(2)), len(tr.ClassAll(2)); got != want {
		t.Errorf("clone class sizes differ: %d vs %d", got, want)
	}
}
