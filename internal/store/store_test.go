package store

import (
	"sort"
	"strings"
	"testing"
)

const sampleXML = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>30</age></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3</increase></bidder>
      <bidder><personref person="p1"/><increase>5</increase></bidder>
    </open_auction>
  </open_auctions>
</site>`

func load(t *testing.T) (*Store, DocID) {
	t.Helper()
	s := New()
	id, err := s.LoadXML("auction.xml", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatalf("LoadXML: %v", err)
	}
	return s, id
}

func TestTagIndex(t *testing.T) {
	s, id := load(t)
	for tag, want := range map[string]int{
		"person": 2, "bidder": 2, "@person": 2, "age": 2, "missing": 0,
	} {
		refs := s.Tag(id, tag)
		if len(refs) != want {
			t.Errorf("Tag(%s) = %d refs, want %d", tag, len(refs), want)
		}
		if !sort.SliceIsSorted(refs, func(i, j int) bool { return refs[i] < refs[j] }) {
			t.Errorf("Tag(%s) refs not sorted", tag)
		}
	}
}

func TestValueIndex(t *testing.T) {
	s, id := load(t)
	refs := s.Doc(id).valueRefsByName("30")
	// Two <age>30</age> elements and their two text children.
	if len(refs) != 4 {
		t.Errorf("value index(30) = %d refs, want 4", len(refs))
	}
	for _, r := range refs {
		if got := s.Doc(id).Content(r); got != "30" {
			t.Errorf("value index(30) returned node with content %q", got)
		}
	}
}

func TestTagValue(t *testing.T) {
	s, id := load(t)
	refs := s.TagValue(id, "age", "30")
	if len(refs) != 2 {
		t.Fatalf("TagValue(age,30) = %d refs, want 2", len(refs))
	}
	for _, r := range refs {
		if s.Doc(id).Tag(r) != "age" {
			t.Errorf("TagValue returned tag %q", s.Doc(id).Tag(r))
		}
	}
	if got := s.TagValue(id, "age", "31"); len(got) != 0 {
		t.Errorf("TagValue(age,31) = %d refs, want 0", len(got))
	}
}

func TestStatsCounting(t *testing.T) {
	s, id := load(t)
	s.ResetStats()
	s.Tag(id, "person")
	s.TagValue(id, "age", "30")
	s.Node(id, 0)
	s.Children(id, 0)
	s.CountMaterialized(7)
	st := s.Snapshot()
	if st.TagLookups != 2 || st.ValueLookups != 1 {
		t.Errorf("lookups = %+v", st)
	}
	if st.NodesRead == 0 || st.NodesMaterialized != 7 {
		t.Errorf("reads = %+v", st)
	}
	s.ResetStats()
	if s.Snapshot() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDuplicateLoad(t *testing.T) {
	s, _ := load(t)
	if _, err := s.LoadXML("auction.xml", strings.NewReader("<a/>")); err == nil {
		t.Error("duplicate load succeeded, want error")
	}
}

func TestLookup(t *testing.T) {
	s, id := load(t)
	got, ok := s.Lookup("auction.xml")
	if !ok || got != id {
		t.Errorf("Lookup = %v, %v", got, ok)
	}
	if _, ok := s.Lookup("other.xml"); ok {
		t.Error("Lookup(other.xml) found something")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "auction.xml" {
		t.Errorf("Names = %v", names)
	}
}

func TestStatsAddString(t *testing.T) {
	a := Stats{TagLookups: 4, NodesRead: 2}
	if !strings.Contains(a.String(), "tagLookups=4") {
		t.Errorf("String = %q", a.String())
	}
}
