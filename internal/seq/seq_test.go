package seq

import (
	"strings"
	"testing"
	"testing/quick"

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

func storeNode(s *store.Store, id store.DocID, ord int32) *Node {
	return NewStoreNode(id, ord, s.Doc(id))
}

func TestTempIDsMonotone(t *testing.T) {
	a := NewTempElement("a")
	b := NewTempText("x")
	c := NewTempAttr("@k", "v")
	if !(a.TempID < b.TempID && b.TempID < c.TempID) {
		t.Errorf("temp ids not monotone: %d %d %d", a.TempID, b.TempID, c.TempID)
	}
	if a.IsStore() {
		t.Error("temp node claims to be store node")
	}
	if c.Tag != "@k" {
		t.Errorf("attr tag = %q", c.Tag)
	}
}

func TestIdentity(t *testing.T) {
	s, id := loadSample(t)
	n1 := storeNode(s, id, 1)
	n1b := storeNode(s, id, 1)
	n2 := storeNode(s, id, 2)
	if n1.Key() != n1b.Key() {
		t.Error("same store node, different key")
	}
	if n1.Key() == n2.Key() {
		t.Error("different store nodes, same key")
	}
	t1, t2 := NewTempElement("x"), NewTempElement("x")
	if t1.Key() == t2.Key() {
		t.Error("different temp nodes, same key")
	}
	if t1.Key().Ord >= 0 || n1.Key().Temp != 0 {
		t.Error("temporary and store keys must live in disjoint ranges")
	}
}

func TestLessOrdering(t *testing.T) {
	s, id := loadSample(t)
	a, b := storeNode(s, id, 1), storeNode(s, id, 5)
	ta, tb := NewTempElement("x"), NewTempElement("y")
	if !Less(a, b) || Less(b, a) {
		t.Error("store order wrong")
	}
	if !Less(ta, tb) || Less(tb, ta) {
		t.Error("temp order wrong")
	}
	if !Less(a, ta) || Less(ta, a) {
		t.Error("store/temp order wrong")
	}
}

func TestClassMembership(t *testing.T) {
	s, id := loadSample(t)
	root := NewTempElement("join_root")
	p := storeNode(s, id, 1)
	Attach(root, p)
	tr := NewTree(root)
	tr.AddToClass(1, root)
	tr.AddToClass(3, p)
	if got := tr.Class(3); len(got) != 1 || got[0] != p {
		t.Fatalf("Class(3) = %v", got)
	}
	if got := tr.Class(99); len(got) != 0 {
		t.Errorf("Class(99) = %v", got)
	}
	n, err := tr.Singleton(3)
	if err != nil || n != p {
		t.Errorf("Singleton(3) = %v, %v", n, err)
	}
	if _, err := tr.Singleton(99); err == nil {
		t.Error("Singleton(99) succeeded")
	}
	tr.AddToClass(3, storeNode(s, id, 8))
	if _, err := tr.Singleton(3); err == nil {
		t.Error("Singleton on 2-member class succeeded")
	}
	if got := tr.Classes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Classes = %v", got)
	}
}

func TestShadowedInvisible(t *testing.T) {
	tr := NewTree(NewTempElement("r"))
	a, b := NewTempElement("a"), NewTempElement("b")
	Attach(tr.Root, a)
	Attach(tr.Root, b)
	tr.AddToClass(2, a)
	tr.AddToClass(2, b)
	a.Shadowed = true
	if got := tr.Class(2); len(got) != 1 || got[0] != b {
		t.Fatalf("Class(2) = %v, want only b", got)
	}
	if got := tr.ClassAll(2); len(got) != 2 {
		t.Fatalf("ClassAll(2) = %v", got)
	}
}

func TestClassOfAndRemove(t *testing.T) {
	tr := NewTree(NewTempElement("r"))
	a := NewTempElement("a")
	Attach(tr.Root, a)
	tr.AddToClass(1, a)
	tr.AddToClass(5, a)
	if got := tr.ClassOf(a); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("ClassOf = %v", got)
	}
	tr.RemoveFromClasses(a)
	if len(tr.Class(1)) != 0 || len(tr.Class(5)) != 0 {
		t.Error("RemoveFromClasses left members")
	}
}

func TestDetach(t *testing.T) {
	r := NewTempElement("r")
	a, b := NewTempElement("a"), NewTempElement("b")
	Attach(r, a)
	Attach(r, b)
	Detach(a)
	if len(r.Kids) != 1 || r.Kids[0] != b || a.Parent != nil {
		t.Errorf("Detach wrong: kids=%v", r.Kids)
	}
	Detach(a) // detaching an orphan is a no-op
}

func TestCloneIndependence(t *testing.T) {
	s, id := loadSample(t)
	root := NewTempElement("r")
	p := storeNode(s, id, 1)
	Attach(root, p)
	tr := NewTree(root)
	tr.AddToClass(3, p)
	cp := tr.Clone()
	// Structure copied.
	if cp.Root == tr.Root || cp.Root.Kids[0] == p {
		t.Fatal("Clone shares nodes")
	}
	// Class map points into the copy.
	if cp.Class(3)[0] != cp.Root.Kids[0] {
		t.Fatal("clone class map points at original nodes")
	}
	// Mutating the copy leaves the original alone.
	cp.Root.Kids[0].Shadowed = true
	if tr.Class(3)[0].Shadowed {
		t.Error("clone shares Shadowed flag")
	}
	// Temp IDs are preserved: the clone denotes the same logical node.
	if cp.Root.TempID != tr.Root.TempID {
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
	if got := Content(s, storeNode(s, id, ageOrd)); got != "30" {
		t.Errorf("Content(age) = %q", got)
	}
	el := NewTempElement("count")
	Attach(el, NewTempText("7"))
	if got := Content(s, el); got != "7" {
		t.Errorf("Content(temp) = %q", got)
	}
	if got := Content(s, NewTempAttr("@id", "p9")); got != "p9" {
		t.Errorf("Content(attr) = %q", got)
	}
}

func TestMaterialize(t *testing.T) {
	s, id := loadSample(t)
	s.ResetStats()
	persons := s.Tag(id, "person")
	n := Materialize(s, id, persons[0])
	if !n.Full || len(n.Kids) != 3 {
		t.Fatalf("materialized person: full=%v kids=%d", n.Full, len(n.Kids))
	}
	if got := s.Snapshot().NodesMaterialized; got != int64(s.Doc(id).SubtreeSize(persons[0])) {
		t.Errorf("materialized count = %d", got)
	}
	var names int
	n.Walk(func(m *Node) bool {
		if m.Tag == "name" {
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
	// Unmaterialized store ref serializes the full store subtree.
	tr := NewTree(storeNode(s, id, persons[0]))
	xml := tr.XML(s)
	if !strings.Contains(xml, "<name>Alice</name>") || !strings.Contains(xml, `id="p0"`) {
		t.Errorf("store ref XML = %s", xml)
	}
	// Constructed tree serializes its kids; shadowed nodes are invisible.
	el := NewTempElement("person")
	Attach(el, NewTempAttr("@name", "Alice"))
	hidden := NewTempElement("secret")
	hidden.Shadowed = true
	Attach(el, hidden)
	Attach(el, NewTempText("x<y"))
	out := NewTree(el).XML(s)
	if out != `<person name="Alice">x&lt;y</person>` {
		t.Errorf("constructed XML = %s", out)
	}
}

func TestSeqXML(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	sq := Seq{NewTree(storeNode(s, id, persons[0])), NewTree(storeNode(s, id, persons[1]))}
	out := sq.XML(s)
	if strings.Count(out, "<person") != 2 || !strings.Contains(out, "\n") {
		t.Errorf("Seq.XML = %s", out)
	}
	cp := sq.Clone()
	if cp[0] == sq[0] || cp[0].Root == sq[0].Root {
		t.Error("Seq.Clone shares trees")
	}
}

// TestQuickLessIsStrictOrder checks that Less is a strict weak order over
// mixed node populations.
func TestQuickLessIsStrictOrder(t *testing.T) {
	s, id := loadSample(t)
	mk := func(sel uint8) *Node {
		if sel%2 == 0 {
			return storeNode(s, id, int32(sel)%int32(s.Doc(id).Len()))
		}
		return NewTempElement("t")
	}
	f := func(a, b, c uint8) bool {
		x, y, z := mk(a), mk(b), mk(c)
		if Less(x, x) || Less(y, y) {
			return false
		}
		if Less(x, y) && Less(y, x) {
			return false
		}
		if Less(x, y) && Less(y, z) && !Less(x, z) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandInPlacePreservesMatchedKids(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	p := storeNode(s, id, persons[0])
	// Attach a matched witness kid (the @id attribute) and classify it.
	var idOrd int32 = -1
	doc := s.Doc(id)
	for _, c := range doc.Children(persons[0]) {
		if doc.Tag(c) == "@id" {
			idOrd = c
		}
	}
	kid := storeNode(s, id, idOrd)
	Attach(p, kid)
	tr := NewTree(p)
	tr.AddToClass(7, kid)

	ExpandInPlace(s, p)
	if !p.Full {
		t.Fatal("node not expanded")
	}
	// The classified kid is still the same pointer, now among full kids.
	if got := tr.Class(7); len(got) != 1 || got[0] != kid {
		t.Fatal("classified kid lost by expansion")
	}
	found := false
	for _, k := range p.Kids {
		if k == kid {
			found = true
		}
	}
	if !found {
		t.Error("matched kid not reused in expanded child list")
	}
	// All stored children are present exactly once.
	if len(p.Kids) != len(doc.Children(persons[0])) {
		t.Errorf("expanded kids = %d, want %d", len(p.Kids), len(doc.Children(persons[0])))
	}
	// Idempotent.
	ExpandInPlace(s, p)
	if len(p.Kids) != len(doc.Children(persons[0])) {
		t.Error("second expansion changed kids")
	}
}

func TestExpandInPlaceKeepsTemporaries(t *testing.T) {
	s, id := loadSample(t)
	persons := s.Tag(id, "person")
	p := storeNode(s, id, persons[0])
	agg := NewTempElement("count")
	Attach(p, agg)
	ExpandInPlace(s, p)
	found := false
	for _, k := range p.Kids {
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
	p := storeNode(s, id, persons[0])
	ExpandInPlace(s, p)
	out := NewTree(p).XML(s)
	if !strings.Contains(out, "<name>Alice</name>") || !strings.Contains(out, `id="p0"`) {
		t.Errorf("expanded XML = %s", out)
	}
}
