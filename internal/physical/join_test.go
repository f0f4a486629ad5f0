package physical

import (
	"context"
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

const joinXML = `<site>
  <person id="p0"><name>Alice</name></person>
  <person id="p1"><name>Bob</name></person>
  <person id="p2"><name>Carol</name></person>
  <open_auction><ref person="p0"/></open_auction>
  <open_auction><ref person="p0"/></open_auction>
  <open_auction><ref person="p2"/></open_auction>
  <open_auction><ref person="px"/></open_auction>
</site>`

// personSeq returns witness trees person[1]/@id[2]; auctionSeq returns
// open_auction[3]/ref/@person[4].
func joinInputs(t *testing.T, s *store.Store, m *Matcher) (seq.Seq, seq.Seq) {
	t.Helper()
	pRoot := pattern.NewDocRoot(0, "fixture.xml")
	p := pRoot.Add(pattern.NewTagNode(1, "person"), pattern.Descendant, pattern.One)
	p.Add(pattern.NewTagNode(2, "@id"), pattern.Child, pattern.One)
	left, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: pRoot})
	if err != nil {
		t.Fatal(err)
	}
	aRoot := pattern.NewDocRoot(0, "fixture.xml")
	a := aRoot.Add(pattern.NewTagNode(3, "open_auction"), pattern.Descendant, pattern.One)
	r := a.Add(pattern.NewTagNode(0, "ref"), pattern.Child, pattern.One)
	r.Add(pattern.NewTagNode(4, "@person"), pattern.Child, pattern.One)
	right, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: aRoot})
	if err != nil {
		t.Fatal(err)
	}
	return left, right
}

func TestValueJoinPairs(t *testing.T) {
	s, _ := loadFixture(t, joinXML)
	m := NewMatcher(s)
	left, right := joinInputs(t, s, m)
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{
		LeftLCL: 2, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.One, RootLCL: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p0 matches two auctions, p2 one; p1 none; px matches nobody.
	if len(out) != 3 {
		t.Fatalf("got %d joined trees, want 3", len(out))
	}
	for _, w := range out {
		if w.Arena().Tag(s, w.Root) != "join_root" {
			t.Errorf("root tag = %q", w.Arena().Tag(s, w.Root))
		}
		if len(w.Kids(w.Root)) != 2 {
			t.Errorf("pair join root has %d kids, want 2", len(w.Kids(w.Root)))
		}
		if len(w.Class(9)) != 1 {
			t.Error("join root not classified")
		}
		p, err := w.SingletonID(2)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.SingletonID(4)
		if err != nil {
			t.Fatal(err)
		}
		if w.Content(s, p) != w.Content(s, a) {
			t.Errorf("join mismatch: %q vs %q", w.Content(s, p), w.Content(s, a))
		}
	}
	// Output in left (document) order: p0, p0, p2.
	var ids []string
	for _, w := range out {
		n, _ := w.SingletonID(2)
		ids = append(ids, w.Content(s, n))
	}
	if strings.Join(ids, ",") != "p0,p0,p2" {
		t.Errorf("left order = %v", ids)
	}
}

func TestValueJoinNest(t *testing.T) {
	s, _ := loadFixture(t, joinXML)
	m := NewMatcher(s)
	left, right := joinInputs(t, s, m)
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{
		LeftLCL: 2, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.OneOrMore,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One output per matching left tree: p0 (two auctions nested), p2.
	if len(out) != 2 {
		t.Fatalf("got %d, want 2", len(out))
	}
	if got := len(out[0].Class(3)); got != 2 {
		t.Errorf("nested auctions = %d, want 2", got)
	}
	if got := len(out[0].Kids(out[0].Root)); got != 3 {
		t.Errorf("nest join root kids = %d, want 1 left + 2 right", got)
	}
}

func TestValueJoinOuterNest(t *testing.T) {
	s, _ := loadFixture(t, joinXML)
	m := NewMatcher(s)
	left, right := joinInputs(t, s, m)
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{
		LeftLCL: 2, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.ZeroOrMore,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every person survives; p1 with empty nest.
	if len(out) != 3 {
		t.Fatalf("got %d, want 3", len(out))
	}
	if got := len(out[1].Class(3)); got != 0 {
		t.Errorf("p1 nested auctions = %d, want 0", got)
	}
}

func TestValueJoinOuterPairs(t *testing.T) {
	s, _ := loadFixture(t, joinXML)
	m := NewMatcher(s)
	left, right := joinInputs(t, s, m)
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{
		LeftLCL: 2, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.ZeroOrOne,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p0 two pairs, p1 passes bare, p2 one pair.
	if len(out) != 4 {
		t.Fatalf("got %d, want 4", len(out))
	}
}

func TestValueJoinNonEquality(t *testing.T) {
	s, _ := loadFixture(t, `<r><l><v>5</v></l><l><v>1</v></l><rr><w>3</w></rr></r>`)
	m := NewMatcher(s)
	lt := pattern.NewDocRoot(0, "fixture.xml")
	lt.Add(pattern.NewTagNode(1, "l"), pattern.Child, pattern.One).
		Add(pattern.NewTagNode(2, "v"), pattern.Child, pattern.One)
	left, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: lt})
	if err != nil {
		t.Fatal(err)
	}
	rt := pattern.NewDocRoot(0, "fixture.xml")
	rt.Add(pattern.NewTagNode(3, "rr"), pattern.Child, pattern.One).
		Add(pattern.NewTagNode(4, "w"), pattern.Child, pattern.One)
	right, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: rt})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{LeftLCL: 2, RightLCL: 4, Op: pattern.GT, RightSpec: pattern.One})
	if err != nil {
		t.Fatal(err)
	}
	// Only v=5 > w=3.
	if len(out) != 1 {
		t.Fatalf("got %d, want 1", len(out))
	}
}

func TestValueJoinMissingKeySkipsTree(t *testing.T) {
	s, _ := loadFixture(t, joinXML)
	m := NewMatcher(s)
	left, right := joinInputs(t, s, m)
	// Join on a class that exists on the right but is empty on the left
	// trees: every left tree is skipped.
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{LeftLCL: 77, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.One})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("got %d outputs from missing-key join", len(out))
	}
}

func TestValueJoinExistentialOverClusters(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	// Clustered b values per a: {1,2} and {3} (third a has no b). A join
	// owns its inputs, so every input is a fresh match.
	clusters := func() seq.Seq {
		t.Helper()
		res, err := m.MatchDocument(context.Background(), aTree(edge("b", 2, pattern.Child, pattern.OneOrMore)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Left side: single b per witness (flat): values 1, 2, 3.
	flat, err := m.MatchDocument(context.Background(), aTree(edge("b", 2, pattern.Child, pattern.One)))
	if err != nil {
		t.Fatal(err)
	}
	// Existential equality: flat values 1 and 2 match the {1,2} cluster,
	// 3 matches {3}: one pair per (left tree, matching right tree).
	out, err := ValueJoin(context.Background(), s, flat, clusters(), JoinSpec{LeftLCL: 2, RightLCL: 2, Op: pattern.EQ, RightSpec: pattern.One})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("existential cluster join: %d pairs, want 3", len(out))
	}
	// A cluster matching via two values still pairs once.
	out, err = ValueJoin(context.Background(), s, clusters(), clusters(), JoinSpec{LeftLCL: 2, RightLCL: 2, Op: pattern.EQ, RightSpec: pattern.One})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("cluster-cluster join: %d pairs, want 2", len(out))
	}
}

func TestCartesianJoin(t *testing.T) {
	s, _ := loadFixture(t, joinXML)
	m := NewMatcher(s)
	left, right := joinInputs(t, s, m)
	out, err := CartesianJoin(context.Background(), "join_root", 1, left, right)
	if err != nil {
		t.Fatalf("CartesianJoin: %v", err)
	}
	if len(out) != len(left)*len(right) {
		t.Fatalf("got %d, want %d", len(out), len(left)*len(right))
	}
}

// Figure 14: structural join vs nest structural join.
func TestStructuralJoinFigure14(t *testing.T) {
	s, _ := loadFixture(t, `<A><E/><B/><D/><D/></A>`)
	m := NewMatcher(s)
	aPat := &pattern.Tree{Root: pattern.NewDocRoot(0, "fixture.xml")}
	aPat.Root.LCL = 1
	left, err := m.MatchDocument(context.Background(), aPat)
	if err != nil {
		t.Fatal(err)
	}
	dRoot := pattern.NewDocRoot(0, "fixture.xml")
	dRoot.Add(pattern.NewTagNode(2, "D"), pattern.Descendant, pattern.One)
	dsel, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: dRoot})
	if err != nil {
		t.Fatal(err)
	}
	// Project to bare D trees.
	var right seq.Seq
	for _, w := range dsel {
		d, err := w.Singleton(2)
		if err != nil {
			t.Fatal(err)
		}
		nt := seq.NewTree(seq.NewStoreNode(d.Doc, d.Ord, s.Doc(d.Doc)))
		nt.AddToClass(2, nt.Root)
		right = append(right, nt)
	}

	// Regular structural join: one output tree per (A, D) pair.
	pairs, err := StructuralJoin(context.Background(), s, cloneSeq(left), cloneSeq(right), 1, pattern.Descendant, pattern.One)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("regular join: %d trees, want 2", len(pairs))
	}
	for _, w := range pairs {
		if got := len(w.Class(2)); got != 1 {
			t.Errorf("pair tree has %d D nodes, want 1", got)
		}
	}

	// Nest structural join: a single output with both Ds clustered.
	nested, err := StructuralJoin(context.Background(), s, cloneSeq(left), cloneSeq(right), 1, pattern.Descendant, pattern.OneOrMore)
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) != 1 {
		t.Fatalf("nest join: %d trees, want 1", len(nested))
	}
	if got := len(nested[0].Class(2)); got != 2 {
		t.Errorf("nest tree has %d D nodes, want 2", got)
	}
}

// cloneSeq deep-copies every tree of s.
func cloneSeq(s seq.Seq) seq.Seq {
	out := make(seq.Seq, len(s))
	for i, t := range s {
		out[i] = t.Clone()
	}
	return out
}

func TestStructuralJoinOuterAndChildAxis(t *testing.T) {
	s, _ := loadFixture(t, `<r><A><D/></A><A><x><D/></x></A></r>`)
	m := NewMatcher(s)
	aRoot := pattern.NewDocRoot(0, "fixture.xml")
	aRoot.Add(pattern.NewTagNode(1, "A"), pattern.Child, pattern.One)
	left, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: aRoot})
	if err != nil {
		t.Fatal(err)
	}
	dRoot := pattern.NewDocRoot(0, "fixture.xml")
	dRoot.Add(pattern.NewTagNode(2, "D"), pattern.Descendant, pattern.One)
	dsel, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: dRoot})
	if err != nil {
		t.Fatal(err)
	}
	var right seq.Seq
	for _, w := range dsel {
		d, _ := w.Singleton(2)
		nt := seq.NewTree(seq.NewStoreNode(d.Doc, d.Ord, s.Doc(d.Doc)))
		nt.AddToClass(2, nt.Root)
		right = append(right, nt)
	}
	// Child axis: only the first A has a D child.
	out, err := StructuralJoin(context.Background(), s, cloneSeq(left), cloneSeq(right), 1, pattern.Child, pattern.ZeroOrMore)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("outer nest child join: %d trees, want 2", len(out))
	}
	if got := len(out[0].Class(2)); got != 1 {
		t.Errorf("first A: %d D kids, want 1", got)
	}
	if got := len(out[1].Class(2)); got != 0 {
		t.Errorf("second A: %d D kids, want 0 (grandchild)", got)
	}
}

func TestGroupByCollapsesPairs(t *testing.T) {
	s, _ := loadFixture(t, `<A><D>1</D><D>2</D></A>`)
	m := NewMatcher(s)
	// Flat match: (A, D) pairs.
	root := pattern.NewDocRoot(0, "fixture.xml")
	root.LCL = 1
	root.Add(pattern.NewTagNode(2, "D"), pattern.Child, pattern.One)
	pairs, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("flat match: %d pairs", len(pairs))
	}
	grouped, err := GroupBy(context.Background(), s, pairs, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != 1 {
		t.Fatalf("grouped: %d trees, want 1", len(grouped))
	}
	if got := len(grouped[0].Class(2)); got != 2 {
		t.Errorf("group member class = %d, want 2", got)
	}
}

// TestValueJoinOwnedLeftManyRights pins the rule in-place stitching rests
// on: an owned left tree that pairs with several right trees is copied for
// every pair but its last, which gets the original. Handing the original
// to the first pair would make every later copy a copy of an already
// stitched tree, binding the first pair's classes twice.
func TestValueJoinOwnedLeftManyRights(t *testing.T) {
	s, _ := loadFixture(t, `<site>
  <person id="p0"/><person id="p1"/>
  <open_auction><ref person="p0"/></open_auction>
  <open_auction><ref person="p0"/></open_auction>
  <open_auction><ref person="p0"/></open_auction>
  <open_auction><ref person="p1"/></open_auction>
</site>`)
	m := NewMatcher(s).WithArena(seq.NewArena())
	left, right := joinInputs(t, s, m)
	leftKeys := make([]seq.Key, len(left))
	for i, l := range left {
		leftKeys[i] = l.Node(l.ClassAll(1)[0]).Key()
	}
	rightKeys := make([]seq.Key, len(right))
	for j, r := range right {
		rightKeys[j] = r.Node(r.ClassAll(3)[0]).Key()
	}
	p0 := left[0]
	out, err := ValueJoin(context.Background(), s, left, right, JoinSpec{
		LeftLCL: 2, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.One, RootLCL: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p0 pairs with auctions 0, 1 and 2, p1 with auction 3.
	pairs := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 3}}
	if len(out) != len(pairs) {
		t.Fatalf("got %d joined trees, want %d", len(out), len(pairs))
	}
	if out[2] != p0 {
		t.Error("the last pair of p0 must get the original left tree")
	}
	for k, w := range out {
		for _, lcl := range []int{1, 2, 3, 4, 9} {
			ms := w.ClassAll(lcl)
			if len(ms) != 1 {
				t.Fatalf("output %d: class %d binds to %d nodes, want 1", k, lcl, len(ms))
			}
			top := ms[0]
			for w.Node(top).Parent != seq.NoNode {
				top = w.Node(top).Parent
			}
			if top != w.Root {
				t.Errorf("output %d: class %d member is not in the tree", k, lcl)
			}
		}
		if w.ClassAll(9)[0] != w.Root {
			t.Errorf("output %d: class 9 is not the join root", k)
		}
		if got, want := w.Node(w.ClassAll(1)[0]).Key(), leftKeys[pairs[k][0]]; got != want {
			t.Errorf("output %d: left class bound to %v, want %v", k, got, want)
		}
		if got, want := w.Node(w.ClassAll(3)[0]).Key(), rightKeys[pairs[k][1]]; got != want {
			t.Errorf("output %d: right class bound to %v, want %v — another pair's right tree", k, got, want)
		}
		for o := range out[:k] {
			for _, lcl := range []int{1, 2, 3, 4, 9} {
				if &out[o].ClassAll(lcl)[0] == &w.ClassAll(lcl)[0] {
					t.Errorf("outputs %d and %d share the member list of class %d", o, k, lcl)
				}
				if out[o].ClassAll(lcl)[0] == w.ClassAll(lcl)[0] {
					t.Errorf("outputs %d and %d share the class %d node", o, k, lcl)
				}
			}
		}
	}
}
