package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sampleXML = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3</increase></bidder>
      <bidder><personref person="p1"/><increase>5</increase></bidder>
      <quantity>2</quantity>
    </open_auction>
  </open_auctions>
</site>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString("test.xml", s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func TestParseBasic(t *testing.T) {
	d := mustParse(t, sampleXML)
	root := &d.Nodes[d.Root()]
	if root.Tag != "site" {
		t.Errorf("root tag = %q, want site", root.Tag)
	}
	if root.ID.Level != 0 || root.ID.Start != 0 {
		t.Errorf("root id = %v", root.ID)
	}
	if got := int(root.ID.End); got != d.Len()-1 {
		t.Errorf("root End = %d, want %d", got, d.Len()-1)
	}
}

func countTag(d *Document, tag string) int {
	n := 0
	for i := range d.Nodes {
		if d.Nodes[i].Tag == tag {
			n++
		}
	}
	return n
}

func TestParseCounts(t *testing.T) {
	d := mustParse(t, sampleXML)
	for tag, want := range map[string]int{
		"person": 2, "bidder": 2, "@id": 3, "@person": 2, "name": 2, "age": 1,
	} {
		if got := countTag(d, tag); got != want {
			t.Errorf("count(%s) = %d, want %d", tag, got, want)
		}
	}
}

func TestChildren(t *testing.T) {
	d := mustParse(t, sampleXML)
	kids := d.Children(0)
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want 2", len(kids))
	}
	if d.Nodes[kids[0]].Tag != "people" || d.Nodes[kids[1]].Tag != "open_auctions" {
		t.Errorf("children tags = %q, %q", d.Nodes[kids[0]].Tag, d.Nodes[kids[1]].Tag)
	}
	// person p0 has @id, name, age children.
	for i := range d.Nodes {
		if d.Nodes[i].Tag == "person" {
			kids := d.Children(int32(i))
			if len(kids) != 3 {
				t.Fatalf("first person has %d children, want 3", len(kids))
			}
			break
		}
	}
}

func TestContent(t *testing.T) {
	d := mustParse(t, sampleXML)
	for i := range d.Nodes {
		n := &d.Nodes[i]
		switch {
		case n.Tag == "age":
			if got := d.Content(int32(i)); got != "30" {
				t.Errorf("Content(age) = %q, want 30", got)
			}
		case n.Tag == "@person" && n.Value == "p1":
			if got := d.Content(int32(i)); got != "p1" {
				t.Errorf("Content(@person) = %q", got)
			}
		case n.Tag == "people":
			if got := d.Content(int32(i)); got != "" {
				t.Errorf("Content(people) = %q, want empty", got)
			}
		}
	}
}

func TestNodeIDRelations(t *testing.T) {
	d := mustParse(t, sampleXML)
	// Brute-force check: Contains agrees with parent-pointer reachability.
	anc := func(a, b int32) bool {
		for p := d.Nodes[b].Parent; p >= 0; p = d.Nodes[p].Parent {
			if p == a {
				return true
			}
		}
		return false
	}
	for i := 0; i < d.Len(); i++ {
		for j := 0; j < d.Len(); j++ {
			a, b := int32(i), int32(j)
			if got, want := d.Nodes[a].ID.Contains(d.Nodes[b].ID), anc(a, b); got != want {
				t.Fatalf("Contains(%d,%d) = %v, want %v", i, j, got, want)
			}
			// The parent is the container exactly one level up.
			ia, ib := d.Nodes[a].ID, d.Nodes[b].ID
			if got, want := ia.Contains(ib) && ia.Level+1 == ib.Level, d.Nodes[b].Parent == a; got != want {
				t.Fatalf("parent(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// xmlOf serializes the whole document.
func xmlOf(d *Document) string {
	var sb strings.Builder
	d.WriteXML(&sb, d.Root())
	return sb.String()
}

func TestWriteXMLRoundTrip(t *testing.T) {
	d := mustParse(t, sampleXML)
	out := xmlOf(d)
	d2 := mustParse(t, out)
	if d2.Len() != d.Len() {
		t.Fatalf("round trip length %d, want %d", d2.Len(), d.Len())
	}
	for i := range d.Nodes {
		if d.Nodes[i].Tag != d2.Nodes[i].Tag || d.Nodes[i].Value != d2.Nodes[i].Value {
			t.Fatalf("round trip node %d differs: %+v vs %+v", i, d.Nodes[i], d2.Nodes[i])
		}
	}
}

func TestXMLEscaping(t *testing.T) {
	d := mustParse(t, `<a v="x&amp;y"><b>1 &lt; 2</b></a>`)
	out := xmlOf(d)
	if !strings.Contains(out, "&amp;") || !strings.Contains(out, "&lt;") {
		t.Errorf("escaping lost: %s", out)
	}
	if _, err := ParseString("re", out); err != nil {
		t.Errorf("reparse escaped output: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a>", "<a></b>", "text only"} {
		if _, err := ParseString("bad", bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
}

func TestBuilderElementHelper(t *testing.T) {
	b := NewBuilder("t")
	b.OpenElement("r")
	b.Element("age", "25")
	b.CloseElement()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d, want 3", d.Len())
	}
	if d.Content(1) != "25" {
		t.Errorf("Content = %q", d.Content(1))
	}
}

func TestSubtreeSize(t *testing.T) {
	d := mustParse(t, sampleXML)
	// A node's interval spans its subtree: the root's spans the document.
	if id := d.Nodes[0].ID; int(id.End-id.Start+1) != d.Len() {
		t.Errorf("root subtree = %d nodes, want %d", id.End-id.Start+1, d.Len())
	}
}

// buildRandom constructs a random valid document with n element nodes,
// exercising the builder the way the XMark generator does.
func buildRandom(rng *rand.Rand, n int) *Document {
	b := NewBuilder("rand")
	b.OpenElement("root")
	open := 1
	justOpened := true
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			b.OpenElement("e")
			open++
			justOpened = true
		case 1:
			if open > 1 {
				b.CloseElement()
				open--
			}
			justOpened = false
		case 2:
			b.Element("leaf", "v")
			justOpened = false
		case 3:
			// Attributes are only legal before any element/text children.
			if justOpened {
				b.Attr("k", "v")
			}
		}
	}
	for ; open > 0; open-- {
		b.CloseElement()
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

func TestQuickRandomDocumentsValid(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		d := buildRandom(rand.New(rand.NewSource(seed)), int(size))
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripPreservesShape(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		d := buildRandom(rand.New(rand.NewSource(seed)), int(size)%64)
		d2, err := ParseString("rt", xmlOf(d))
		if err != nil {
			return false
		}
		if d.Len() != d2.Len() {
			return false
		}
		for i := range d.Nodes {
			if d.Nodes[i].Tag != d2.Nodes[i].Tag || d.Nodes[i].ID != d2.Nodes[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickContainmentMatchesParents(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		d := buildRandom(rand.New(rand.NewSource(seed)), int(size)%48)
		for i := range d.Nodes {
			for p := d.Nodes[i].Parent; p >= 0; p = d.Nodes[p].Parent {
				if !d.Nodes[p].ID.Contains(d.Nodes[i].ID) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
