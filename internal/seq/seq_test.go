package seq

import (
	"slices"
	"strings"
	"testing"

	"tlc/internal/store"
)

const sampleXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name></person>
</site>`

func loadSample(t *testing.T) (*store.Store, store.DocID) {
	t.Helper()
	s := store.New()
	id, err := s.LoadXML("s.xml", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// builder is a slab of a fresh arena with shorthands for hand-built trees.
type builder struct{ *Slab }

func newBuilder() builder { return builder{NewArena().Hold()} }

func (b builder) el(tag string) NodeID { return b.TempElement(Intern(tag)) }

func (b builder) node(id NodeID) *Node { return b.a.Node(id) }

func (b builder) storeNode(s *store.Store, id store.DocID, ord int32) NodeID {
	return b.StoreNodeOf(id, ord, s.Doc(id))
}

func TestTempIDsMonotone(t *testing.T) {
	b := newBuilder()
	a, x, c := b.el("a"), b.TempText("x"), b.TempAttr(Intern("@k"), "v")
	if !(b.node(a).TempID < b.node(x).TempID && b.node(x).TempID < b.node(c).TempID) {
		t.Errorf("temp ids not monotone: %d %d %d", b.node(a).TempID, b.node(x).TempID, b.node(c).TempID)
	}
	if b.node(a).IsStore() {
		t.Error("temp node claims to be store node")
	}
	if got := b.a.Tag(nil, c); got != "@k" {
		t.Errorf("attr tag = %q", got)
	}
}

func TestIdentity(t *testing.T) {
	s, id := loadSample(t)
	b := newBuilder()
	n1, n1b, n2 := b.node(b.storeNode(s, id, 1)), b.node(b.storeNode(s, id, 1)), b.node(b.storeNode(s, id, 2))
	if n1.Key() != n1b.Key() {
		t.Error("same store node, different key")
	}
	if n1.Key() == n2.Key() {
		t.Error("different store nodes, same key")
	}
	t1, t2 := b.node(b.el("x")), b.node(b.el("x"))
	if t1.Key() == t2.Key() {
		t.Error("different temp nodes, same key")
	}
	if t1.Key().Ord >= 0 || n1.Key().Temp != 0 {
		t.Error("temporary and store keys must live in disjoint ranges")
	}
}

func TestClassMembership(t *testing.T) {
	s, id := loadSample(t)
	b := newBuilder()
	root := b.el("join_root")
	p := b.storeNode(s, id, 1)
	b.Attach(root, p)
	tr := b.NewTree(root)
	tr.AddToClass(1, root)
	tr.AddToClass(3, p)
	if got := tr.Class(3); len(got) != 1 || got[0] != p {
		t.Fatalf("Class(3) = %v", got)
	}
	if got := tr.Class(99); len(got) != 0 {
		t.Errorf("Class(99) = %v", got)
	}
	n, err := tr.Singleton(3)
	if err != nil || n != b.node(p) {
		t.Errorf("Singleton(3) = %v, %v", n, err)
	}
	if _, err := tr.Singleton(99); err == nil {
		t.Error("Singleton(99) succeeded")
	}
	tr.AddToClass(3, b.storeNode(s, id, 8))
	if _, err := tr.Singleton(3); err == nil {
		t.Error("Singleton on 2-member class succeeded")
	}
	if got := tr.Classes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Classes = %v", got)
	}
}

func TestShadowedInvisible(t *testing.T) {
	b := newBuilder()
	tr := b.NewTree(b.el("r"))
	x, y := b.el("a"), b.el("b")
	b.Attach(tr.Root, x)
	b.Attach(tr.Root, y)
	tr.AddToClass(2, x)
	tr.AddToClass(2, y)
	b.node(x).Shadowed = true
	if got := tr.Class(2); len(got) != 1 || got[0] != y {
		t.Fatalf("Class(2) = %v, want only b", got)
	}
	if got := tr.ClassAll(2); len(got) != 2 {
		t.Fatalf("ClassAll(2) = %v", got)
	}
}

func TestClassOfAndRemove(t *testing.T) {
	b := newBuilder()
	tr := b.NewTree(b.el("r"))
	x := b.el("a")
	b.Attach(tr.Root, x)
	tr.AddToClass(1, x)
	tr.AddToClass(5, x)
	if !slices.Contains(tr.ClassAll(1), x) || !slices.Contains(tr.ClassAll(5), x) {
		t.Errorf("classes 1 and 5 = %v, %v", tr.ClassAll(1), tr.ClassAll(5))
	}
	tr.RemoveFromClasses(x)
	if len(tr.Class(1)) != 0 || len(tr.Class(5)) != 0 {
		t.Error("RemoveFromClasses left members")
	}
}

func TestDetach(t *testing.T) {
	b := newBuilder()
	r, x, y := b.el("r"), b.el("a"), b.el("b")
	b.Attach(r, x)
	b.Attach(r, y)
	b.a.Detach(x)
	if kids := b.a.Kids(r); len(kids) != 1 || kids[0] != y || b.node(x).Parent != NoNode {
		t.Errorf("Detach wrong: kids=%v", kids)
	}
	b.a.Detach(x) // detaching an orphan is a no-op
}

func TestCloneIndependence(t *testing.T) {
	s, id := loadSample(t)
	b := newBuilder()
	root := b.el("r")
	p := b.storeNode(s, id, 1)
	b.Attach(root, p)
	tr := b.NewTree(root)
	tr.AddToClass(3, p)
	cp := tr.Clone()
	// Structure copied.
	if cp.Root == tr.Root || cp.Kids(cp.Root)[0] == p {
		t.Fatal("Clone shares nodes")
	}
	// Class table names the copy.
	if cp.Class(3)[0] != cp.Kids(cp.Root)[0] {
		t.Fatal("clone class table names original nodes")
	}
	// Mutating the copy leaves the original alone.
	cp.Node(cp.Kids(cp.Root)[0]).Shadowed = true
	if tr.Node(tr.Class(3)[0]).Shadowed {
		t.Error("clone shares Shadowed flag")
	}
	// Temp IDs are preserved: the clone denotes the same logical node.
	if cp.Node(cp.Root).TempID != tr.Node(tr.Root).TempID {
		t.Error("clone changed TempID")
	}
}

func TestContent(t *testing.T) {
	s, id := loadSample(t)
	var ageOrd int32 = -1
	doc := s.Doc(id)
	for i := 0; i < doc.Len(); i++ {
		if doc.Tag(int32(i)) == "age" {
			ageOrd = int32(i)
		}
	}
	b := newBuilder()
	if got := b.a.Content(s, b.storeNode(s, id, ageOrd)); got != "30" {
		t.Errorf("Content(age) = %q", got)
	}
	el := b.el("count")
	b.Attach(el, b.TempText("7"))
	if got := b.a.Content(s, el); got != "7" {
		t.Errorf("Content(temp) = %q", got)
	}
	if got := b.a.Content(s, b.TempAttr(Intern("@id"), "p9")); got != "p9" {
		t.Errorf("Content(attr) = %q", got)
	}
}

func TestMaterialize(t *testing.T) {
	s, id := loadSample(t)
	s.ResetStats()
	persons := s.Tag(id, "person")
	a := NewArena()
	n := MaterializeIn(a, s, id, persons[0])
	if !a.Node(n).Full || len(a.Kids(n)) != 3 {
		t.Fatalf("materialized person: full=%v kids=%d", a.Node(n).Full, len(a.Kids(n)))
	}
	if got := s.Snapshot().NodesMaterialized; got != int64(s.Doc(id).SubtreeSize(persons[0])) {
		t.Errorf("materialized count = %d", got)
	}
	var names int
	a.Walk(n, func(m NodeID) bool {
		if a.Tag(s, m) == "name" {
			names++
		}
		return true
	})
	if names != 1 {
		t.Errorf("materialized subtree has %d name nodes", names)
	}
}

func TestXMLSerialization(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	b := newBuilder()
	// Unmaterialized store ref serializes the full store subtree.
	xml := b.NewTree(b.storeNode(s, id, persons[0])).XML(s)
	if !strings.Contains(xml, "<name>Alice</name>") || !strings.Contains(xml, `id="p0"`) {
		t.Errorf("store ref XML = %s", xml)
	}
	// Constructed tree serializes its kids; shadowed nodes are invisible.
	el := b.el("person")
	b.Attach(el, b.TempAttr(Intern("@name"), "Alice"))
	hidden := b.el("secret")
	b.node(hidden).Shadowed = true
	b.Attach(el, hidden)
	b.Attach(el, b.TempText("x<y"))
	out := b.NewTree(el).XML(s)
	if out != `<person name="Alice">x&lt;y</person>` {
		t.Errorf("constructed XML = %s", out)
	}
}

func TestSeqXML(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	sq := Seq{
		NewTree(NewStoreNode(id, persons[0], s.Doc(id))),
		NewTree(NewStoreNode(id, persons[1], s.Doc(id))),
	}
	out := sq.XML(s)
	if strings.Count(out, "<person") != 2 || !strings.Contains(out, "\n") {
		t.Errorf("Seq.XML = %s", out)
	}
	if cp := sq[0].Clone(); cp == sq[0] || cp.Root == sq[0].Root {
		t.Error("Clone shares trees")
	}
}

func TestExpandInPlacePreservesMatchedKids(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	b := newBuilder()
	p := b.storeNode(s, id, persons[0])
	// Attach a matched witness kid (the @id attribute) and classify it.
	var idOrd int32 = -1
	doc := s.Doc(id)
	for _, c := range doc.Children(persons[0]) {
		if doc.Tag(c) == "@id" {
			idOrd = c
		}
	}
	kid := b.storeNode(s, id, idOrd)
	b.Attach(p, kid)
	tr := b.NewTree(p)
	tr.AddToClass(7, kid)

	ExpandInPlaceIn(b.a, s, p)
	if !b.node(p).Full {
		t.Fatal("node not expanded")
	}
	// The classified kid is still the same node, now among full kids.
	if got := tr.Class(7); len(got) != 1 || got[0] != kid {
		t.Fatal("classified kid lost by expansion")
	}
	found := false
	for _, k := range tr.Kids(p) {
		if k == kid {
			found = true
		}
	}
	if !found {
		t.Error("matched kid not reused in expanded child list")
	}
	// All stored children are present exactly once.
	if len(tr.Kids(p)) != len(doc.Children(persons[0])) {
		t.Errorf("expanded kids = %d, want %d", len(tr.Kids(p)), len(doc.Children(persons[0])))
	}
	// Idempotent.
	ExpandInPlaceIn(b.a, s, p)
	if len(tr.Kids(p)) != len(doc.Children(persons[0])) {
		t.Error("second expansion changed kids")
	}
}

func TestExpandInPlaceKeepsTemporaries(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	b := newBuilder()
	p := b.storeNode(s, id, persons[0])
	agg := b.el("count")
	b.Attach(p, agg)
	ExpandInPlaceIn(b.a, s, p)
	found := false
	for _, k := range b.a.Kids(p) {
		if k == agg {
			found = true
		}
	}
	if !found {
		t.Error("temporary kid dropped by expansion")
	}
}

func TestAppendXMLOnExpandedTree(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	b := newBuilder()
	p := b.storeNode(s, id, persons[0])
	ExpandInPlaceIn(b.a, s, p)
	out := b.NewTree(p).XML(s)
	if !strings.Contains(out, "<name>Alice</name>") || !strings.Contains(out, `id="p0"`) {
		t.Errorf("expanded XML = %s", out)
	}
}
