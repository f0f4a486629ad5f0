package physical

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/seq"
)

// matchAs returns the witness trees of doc_root/a with classes 1=a.
func matchAs(t *testing.T, m *Matcher) seq.Seq {
	t.Helper()
	res, err := m.MatchDocument(context.Background(), aTree())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExtendAddsBranches(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	in := matchAs(t, m) // three bare a trees
	// class(1) -> b{*}[5]
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(5, "b"), pattern.Child, pattern.ZeroOrMore)
	out, err := m.MatchExtend(context.Background(), in, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d trees, want 3", len(out))
	}
	for i, want := range []int{2, 1, 0} {
		if got := len(out[i].Class(5)); got != want {
			t.Errorf("tree %d class 5 size = %d, want %d", i, got, want)
		}
	}
	// The branches are attached under the anchor.
	w := out[0]
	if kids := w.Kids(w.Class(1)[0]); len(kids) != 2 || w.Arena().Tag(s, kids[0]) != "b" {
		t.Errorf("anchor kids = %v", tags(s, w, kids))
	}
	// Single-combination extensions mutate in place (an operator owns its
	// input): the output trees ARE the input trees.
	if out[0] != in[0] {
		t.Error("single-combination extension did not reuse the input tree")
	}
}

func TestExtendDashMultipliesAndDrops(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	in := matchAs(t, m)
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(5, "b"), pattern.Child, pattern.One)
	out, err := m.MatchExtend(context.Background(), in, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	// a1 -> two witnesses, a2 -> one, a3 dropped ("-" needs a match).
	if len(out) != 3 {
		t.Fatalf("got %d trees, want 3", len(out))
	}
	var vals []string
	for _, w := range out {
		b, err := w.SingletonID(5)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, w.Content(s, b))
	}
	if strings.Join(vals, ",") != "1,2,3" {
		t.Errorf("b values = %v", vals)
	}
}

func TestExtendPlusDropsAnchorlessTree(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	in := matchAs(t, m)
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(5, "c"), pattern.Child, pattern.OneOrMore)
	out, err := m.MatchExtend(context.Background(), in, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	// a1 has one c, a2 none (dropped), a3 has two (clustered).
	if len(out) != 2 {
		t.Fatalf("got %d trees, want 2", len(out))
	}
	if got := len(out[1].Class(5)); got != 2 {
		t.Errorf("clustered c class = %d, want 2", got)
	}
}

func TestExtendEmptyAnchorClassPassesThrough(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	in := matchAs(t, m)
	anchor := pattern.NewLCAnchor(0, 42) // class 42 empty everywhere
	anchor.Add(pattern.NewTagNode(5, "b"), pattern.Child, pattern.One)
	out, err := m.MatchExtend(context.Background(), in, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Errorf("got %d trees, want %d", len(out), len(in))
	}
}

func TestExtendRelabelsAnchor(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	in := matchAs(t, m)
	anchor := pattern.NewLCAnchor(9, 1) // anchor additionally labelled 9
	out, err := m.MatchExtend(context.Background(), in, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range out {
		if len(w.Class(9)) != 1 {
			t.Errorf("tree %d: anchor not added to class 9", i)
		}
	}
}

func TestExtendDeepPath(t *testing.T) {
	s, _ := loadFixture(t, `<r>
	  <a><m><n>7</n></m></a>
	  <a><m/></a>
	</r>`)
	m := NewMatcher(s)
	in := matchAs(t, m)
	anchor := pattern.NewLCAnchor(0, 1)
	mn := anchor.Add(pattern.NewTagNode(5, "m"), pattern.Child, pattern.ZeroOrMore)
	mn.Add(pattern.NewTagNode(6, "n"), pattern.Child, pattern.One)
	out, err := m.MatchExtend(context.Background(), in, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d trees, want 2", len(out))
	}
	// First a: m survives because its n matched; second a: its m has no n,
	// so the "*" cluster is empty.
	if got := len(out[0].Class(6)); got != 1 {
		t.Errorf("first tree class 6 = %d", got)
	}
	if got := len(out[1].Class(5)); got != 0 {
		t.Errorf("second tree class 5 = %d, want 0 (m without n is not a match)", got)
	}
}

func TestExtendTemporaryAnchorClassifiesInPlace(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	// Build a constructed tree: <res><b/>(store b)</res> where the b nodes
	// are materialized copies.
	bs := s.Tag(0, "b")
	tr, sl := constructed()
	for _, o := range bs {
		sl.Attach(tr.Root, seq.MaterializeIn(tr.Arena(), s, 0, o))
	}
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(5, "b"), pattern.Child, pattern.ZeroOrMore)
	out, err := m.MatchExtend(context.Background(), seq.Seq{tr}, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d trees", len(out))
	}
	if got := len(out[0].Class(5)); got != 3 {
		t.Errorf("class 5 = %d, want 3 existing nodes classified", got)
	}
	// No branches were added: the kids are still exactly the 3 b nodes.
	if got := len(out[0].Kids(out[0].Root)); got != 3 {
		t.Errorf("root kids = %d, want 3", got)
	}
}

func TestExtendTemporaryAnchorDescendant(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	tr, sl := constructed()
	mid := sl.TempElement(seq.Intern("mid"))
	sl.Attach(tr.Root, mid)
	sl.Attach(mid, sl.TempText("x"))
	sl.Attach(mid, sl.TempElement(seq.Intern("leaf")))
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(5, "leaf"), pattern.Descendant, pattern.OneOrMore)
	out, err := m.MatchExtend(context.Background(), seq.Seq{tr}, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Class(5)) != 1 {
		t.Fatalf("descendant classify failed: %d trees", len(out))
	}
}

// constructed returns a constructed tree <res> in an arena of its own, its
// root in class 1, and a slab of that arena to build the rest from.
func constructed() (*seq.Tree, *seq.Slab) {
	sl := seq.NewArena().Hold()
	tr := sl.NewTree(sl.TempElement(seq.Intern("res")))
	tr.AddToClass(1, tr.Root)
	return tr, sl
}

func TestExtendRequiresLCAnchor(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	if _, err := m.MatchExtend(context.Background(), nil, aTree()); err == nil {
		t.Error("doc-rooted pattern accepted by MatchExtend")
	}
}

// TestExtendTemporaryAnchorDeepPattern checks that a pattern two levels deep
// below a constructed anchor classifies each level's own node.
func TestExtendTemporaryAnchorDeepPattern(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	tr, sl := constructed()
	for _, v := range []string{"7", "8"} {
		mid := sl.TempElement(seq.Intern("m"))
		leaf := sl.TempElement(seq.Intern("n"))
		sl.Attach(leaf, sl.TempText(v))
		sl.Attach(mid, leaf)
		sl.Attach(tr.Root, mid)
	}
	anchor := pattern.NewLCAnchor(0, 1)
	mn := anchor.Add(pattern.NewTagNode(5, "m"), pattern.Child, pattern.ZeroOrMore)
	mn.Add(pattern.NewTagNode(6, "n"), pattern.Child, pattern.One)
	out, err := m.MatchExtend(context.Background(), seq.Seq{tr}, &pattern.Tree{Root: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d trees, want 1", len(out))
	}
	if got := strings.Join(tags(s, out[0], out[0].Class(5)), ","); got != "m,m" {
		t.Errorf("class 5 = %s, want m,m", got)
	}
	if got := strings.Join(tags(s, out[0], out[0].Class(6)), ","); got != "n,n" {
		t.Errorf("class 6 = %s, want n,n", got)
	}
}

// TestExtendRefusesLogicalEdgeBelowConstructedNode: the extender decides
// only plain edges below the nodes of a constructed tree, so a NOT edge
// there is refused with a typed error rather than decided.
func TestExtendRefusesLogicalEdgeBelowConstructedNode(t *testing.T) {
	s, id := loadFixture(t, fixtureXML)
	tr, sl := constructed()
	for _, o := range s.Tag(id, "a") {
		sl.Attach(tr.Root, sl.StoreNodeOf(id, o, s.Doc(id)))
	}
	anchor := pattern.NewLCAnchor(0, 1)
	a := anchor.Add(pattern.NewTagNode(5, "a"), pattern.Child, pattern.ZeroOrMore)
	a.Edges = append(a.Edges, pattern.Edge{Axis: pattern.Child, To: pattern.NewTagNode(0, "b"), Not: true})
	_, err := NewMatcher(s).MatchExtend(context.Background(), seq.Seq{tr}, &pattern.Tree{Root: anchor})
	if !errors.Is(err, ErrLogicalBelowConstructed) {
		t.Fatalf("err = %v, want ErrLogicalBelowConstructed", err)
	}
}

// TestExtendBelowStoreReference extends a constructed tree whose kids are
// store references, which stand for their stored subtrees, with child and
// descendant edges and a "-" edge that multiplies the tree. The labels and answers must be those of the same tree with the
// subtrees materialised, and every labelled node must hang in its own
// witness tree.
func TestExtendBelowStoreReference(t *testing.T) {
	s, id := loadFixture(t, fixtureXML)
	build := func(materialise bool) *seq.Tree {
		tr, sl := constructed()
		sl.Attach(tr.Root, sl.TempText("t"))
		for _, o := range s.Tag(id, "a") {
			n := sl.StoreNodeOf(id, o, s.Doc(id))
			if materialise {
				n = seq.MaterializeIn(tr.Arena(), s, id, o)
			}
			sl.Attach(tr.Root, n)
		}
		return tr
	}
	anchored := func(edges ...pattern.Edge) *pattern.Tree {
		anchor := pattern.NewLCAnchor(0, 1)
		anchor.Edges = edges
		return &pattern.Tree{Root: anchor}
	}
	aWith := func(spec pattern.MSpec, edges ...pattern.Edge) pattern.Edge {
		e := edge("a", 5, pattern.Child, spec)
		e.To.Edges = edges
		return e
	}
	cases := map[string]*pattern.Tree{
		"child":      anchored(aWith(pattern.ZeroOrMore, edge("b", 6, pattern.Child, pattern.One))),
		"descendant": anchored(edge("b", 6, pattern.Descendant, pattern.ZeroOrMore)),
		"deep":       anchored(aWith(pattern.ZeroOrMore, edge("c", 6, pattern.Descendant, pattern.ZeroOrOne))),
		"multiplies": anchored(aWith(pattern.One, edge("b", 6, pattern.Child, pattern.One))),
	}
	// describe renders each witness tree as its answer and its labels, and
	// checks that every labelled node hangs in the tree.
	describe := func(out seq.Seq) []string {
		var lines []string
		for i, w := range out {
			lines = append(lines, string(w.AppendXML(nil, s)))
			for _, lcl := range w.Classes() {
				var ids []string
				for _, m := range w.ClassAll(lcl) {
					top := m
					for w.Node(top).Parent != seq.NoNode {
						top = w.Node(top).Parent
					}
					if top != w.Root {
						t.Errorf("tree %d: class %d member %v is not in the tree", i, lcl, w.Node(m).Key())
					}
					if w.Node(m).IsStore() {
						ids = append(ids, fmt.Sprint(w.Node(m).Key()))
					} else {
						ids = append(ids, w.Arena().Tag(s, m)) // temporary IDs differ from build to build
					}
				}
				lines = append(lines, fmt.Sprintf("  %d: %s", lcl, strings.Join(ids, " ")))
			}
		}
		return lines
	}
	extend := func(in seq.Seq, apt *pattern.Tree) []string {
		t.Helper()
		out, err := NewMatcher(s).MatchExtend(context.Background(), in, apt)
		if err != nil {
			t.Fatal(err)
		}
		return describe(out)
	}
	for name, apt := range cases {
		t.Run(name, func(t *testing.T) {
			want := strings.Join(extend(seq.Seq{build(true)}, apt), "\n")
			if got := strings.Join(extend(seq.Seq{build(false)}, apt), "\n"); got != want {
				t.Errorf("store references:\n%s\nmaterialised:\n%s", got, want)
			}
		})
	}
}
