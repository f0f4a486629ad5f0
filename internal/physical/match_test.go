package physical

import (
	"context"
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// fixtureXML exercises heterogeneity in both dimensions, in the spirit of
// Figure 4: repeated b children, optional c children, and one a with no b.
const fixtureXML = `<r>
  <a><b>1</b><b>2</b><c>x</c></a>
  <a><b>3</b></a>
  <a><c>y</c><c>z</c></a>
</r>`

func loadFixture(t *testing.T, xml string) (*store.Store, store.DocID) {
	t.Helper()
	s := store.New()
	id, err := s.LoadXML("fixture.xml", strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// docRootTree builds doc_root -> a[1] (axis child) with the given extra
// edges below a.
func aTree(edges ...pattern.Edge) *pattern.Tree {
	root := pattern.NewDocRoot(0, "fixture.xml")
	a := pattern.NewTagNode(1, "a")
	a.Edges = edges
	root.Add(a, pattern.Child, pattern.One)
	return &pattern.Tree{Root: root}
}

func edge(tag string, lcl int, axis pattern.Axis, spec pattern.MSpec) pattern.Edge {
	return pattern.Edge{Axis: axis, Spec: spec, To: pattern.NewTagNode(lcl, tag)}
}

func tags(st *store.Store, t *seq.Tree, nodes []seq.NodeID) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = t.Arena().Tag(st, n)
	}
	return out
}

func TestMatchClusteredPlusOptional(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	// a[1] with b{+}[2] and c{?}[3] — the Figure 4 shape.
	res, err := m.MatchDocument(context.Background(), aTree(
		edge("b", 2, pattern.Child, pattern.OneOrMore),
		edge("c", 3, pattern.Child, pattern.ZeroOrOne),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d witness trees, want 2 (third a has no b)", len(res))
	}
	// First witness: both bs clustered, one c.
	if got := len(res[0].Class(2)); got != 2 {
		t.Errorf("witness 0 class 2 size = %d, want 2", got)
	}
	if got := len(res[0].Class(3)); got != 1 {
		t.Errorf("witness 0 class 3 size = %d, want 1", got)
	}
	// Second witness: one b, empty c class ("?" lets the parent through).
	if got := len(res[1].Class(2)); got != 1 {
		t.Errorf("witness 1 class 2 size = %d, want 1", got)
	}
	if got := len(res[1].Class(3)); got != 0 {
		t.Errorf("witness 1 class 3 size = %d, want 0", got)
	}
	// Structure: matched children attached under the a node.
	w := res[0]
	if got := tags(s, w, w.Kids(w.Class(1)[0])); len(got) != 3 {
		t.Errorf("witness 0 a kids = %v", got)
	}
}

func TestMatchDashMultiplies(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	res, err := m.MatchDocument(context.Background(), aTree(edge("b", 2, pattern.Child, pattern.One)))
	if err != nil {
		t.Fatal(err)
	}
	// a1 splits into two witnesses (one per b), a2 gives one, a3 none.
	if len(res) != 3 {
		t.Fatalf("got %d witness trees, want 3", len(res))
	}
	var bVals []string
	for _, w := range res {
		b, err := w.SingletonID(2)
		if err != nil {
			t.Fatal(err)
		}
		bVals = append(bVals, w.Content(s, b))
	}
	if strings.Join(bVals, ",") != "1,2,3" {
		t.Errorf("b contents in document order = %v", bVals)
	}
}

func TestMatchStarLetsEmptyThrough(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	res, err := m.MatchDocument(context.Background(), aTree(edge("b", 2, pattern.Child, pattern.ZeroOrMore)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d witness trees, want 3", len(res))
	}
	if got := len(res[2].Class(2)); got != 0 {
		t.Errorf("third a class 2 = %d members, want 0", got)
	}
}

func TestMatchDescendantAxis(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	root := pattern.NewDocRoot(0, "fixture.xml")
	root.Add(pattern.NewTagNode(1, "b"), pattern.Descendant, pattern.One)
	res, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("//b gave %d witnesses, want 3", len(res))
	}
}

func TestMatchContentPredicate(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	b := pattern.NewTagNode(2, "b")
	b.Pred = &pattern.Predicate{Op: pattern.GT, Value: "1"}
	res, err := m.MatchDocument(context.Background(), aTree(pattern.Edge{Axis: pattern.Child, Spec: pattern.One, To: b}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("b>1 gave %d witnesses, want 2", len(res))
	}
}

func TestMatchEqualityPredicateUsesValueIndex(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	s.ResetStats()
	m := NewMatcher(s)
	c := pattern.NewTagNode(2, "c")
	c.Pred = &pattern.Predicate{Op: pattern.EQ, Value: "y"}
	res, err := m.MatchDocument(context.Background(), aTree(pattern.Edge{Axis: pattern.Child, Spec: pattern.One, To: c}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("c=y gave %d witnesses, want 1", len(res))
	}
	if st := s.Snapshot(); st.ValueLookups == 0 {
		t.Error("equality predicate did not use the value index")
	}
}

func TestMatchParentChildVsDescendant(t *testing.T) {
	s, _ := loadFixture(t, `<r><x><y><z>1</z></y></x></r>`)
	m := NewMatcher(s)
	// x / z : no match (z is a grandchild).
	root := pattern.NewDocRoot(0, "fixture.xml")
	x := root.Add(pattern.NewTagNode(1, "x"), pattern.Descendant, pattern.One)
	x.Add(pattern.NewTagNode(2, "z"), pattern.Child, pattern.One)
	res, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("x/z gave %d witnesses, want 0", len(res))
	}
	// x // z : match.
	root2 := pattern.NewDocRoot(0, "fixture.xml")
	x2 := root2.Add(pattern.NewTagNode(1, "x"), pattern.Descendant, pattern.One)
	x2.Add(pattern.NewTagNode(2, "z"), pattern.Descendant, pattern.One)
	res, err = m.MatchDocument(context.Background(), &pattern.Tree{Root: root2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("x//z gave %d witnesses, want 1", len(res))
	}
}

func TestMatchDeepPattern(t *testing.T) {
	s, _ := loadFixture(t, `<r>
	  <p><q><b>1</b></q><q><b>2</b></q></p>
	  <p><q/></p>
	</r>`)
	m := NewMatcher(s)
	root := pattern.NewDocRoot(0, "fixture.xml")
	p := root.Add(pattern.NewTagNode(1, "p"), pattern.Child, pattern.One)
	q := p.Add(pattern.NewTagNode(2, "q"), pattern.Child, pattern.OneOrMore)
	q.Add(pattern.NewTagNode(3, "b"), pattern.Child, pattern.One)
	res, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	// First p: q{+} over q-with-b partials: both qs qualify, clustered -> 1
	// witness. Second p: its q has no b, "+" fails -> dropped.
	if len(res) != 1 {
		t.Fatalf("got %d witnesses, want 1", len(res))
	}
	if got := len(res[0].Class(2)); got != 2 {
		t.Errorf("q class size = %d, want 2", got)
	}
	if got := len(res[0].Class(3)); got != 2 {
		t.Errorf("b class size = %d, want 2", got)
	}
}

func TestMatchDocumentErrors(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	// Pattern rooted at a tag test.
	bad := &pattern.Tree{Root: pattern.NewTagNode(1, "a")}
	if _, err := m.MatchDocument(context.Background(), bad); err == nil {
		t.Error("tag-rooted MatchDocument succeeded")
	}
	// Unknown document.
	if _, err := m.MatchDocument(context.Background(), &pattern.Tree{Root: pattern.NewDocRoot(0, "nope.xml")}); err == nil {
		t.Error("unknown document succeeded")
	}
	// Invalid pattern.
	if _, err := m.MatchDocument(context.Background(), &pattern.Tree{}); err == nil {
		t.Error("nil-root pattern succeeded")
	}
}

func TestCandidateCachingProbesIndexOnce(t *testing.T) {
	s, _ := loadFixture(t, fixtureXML)
	m := NewMatcher(s)
	apt := aTree(edge("b", 2, pattern.Child, pattern.One))
	s.ResetStats()
	if _, err := m.MatchDocument(context.Background(), apt); err != nil {
		t.Fatal(err)
	}
	first := s.Snapshot().TagLookups
	s.ResetStats()
	if _, err := m.MatchDocument(context.Background(), apt); err != nil {
		t.Fatal(err)
	}
	if again := s.Snapshot().TagLookups; again != 0 {
		t.Errorf("re-match probed the index %d times; candidates should be cached", again)
	}
	if first == 0 {
		t.Error("first match did not probe the index")
	}
}
