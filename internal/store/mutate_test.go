package store

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"tlc/internal/faultinject"
	"tlc/internal/xmltree"
)

// checkOracle verifies a spliced document against a rebuild from its own
// serialized XML: a fresh load must produce a semantically identical
// document — same tree, same tag/value indexes — which the canonical
// fingerprint captures. The structural self-check
// runs first so a broken column shows up as itself, not as a diff.
func checkOracle(t *testing.T, d *Doc) {
	t.Helper()
	if err := d.validateSplice(); err != nil {
		t.Fatalf("validateSplice: %v", err)
	}
	fresh := New()
	id, err := fresh.LoadXML(d.Name(), strings.NewReader(d.XML(0)))
	if err != nil {
		t.Fatalf("oracle reload: %v", err)
	}
	want := fresh.Doc(id).Fingerprint()
	if got := d.Fingerprint(); got != want {
		t.Fatalf("fingerprint diverges from rebuild-from-XML oracle:\n--- spliced ---\n%s\n--- fresh load ---\n%s", got, want)
	}
}

// checkDerived fails unless what d carries besides its columns — the
// postings the splice that built it maintained — is what derive
// builds from those columns.
func checkDerived(t testing.TB, d *Doc) {
	t.Helper()
	fresh := *d
	derive(&fresh)
	if got, want := d.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("incremental maintenance diverges from derive:\n--- maintained ---\n%s\n--- derived ---\n%s", got, want)
	}
}

func ordOf(t *testing.T, s *Store, id DocID, tag string, k int) int32 {
	t.Helper()
	refs := s.Tag(id, tag)
	if k >= len(refs) {
		t.Fatalf("tag %q has %d refs, want index %d", tag, len(refs), k)
	}
	return refs[k]
}

func mustFrag(t *testing.T, xml string) *xmltree.Document {
	t.Helper()
	f, err := ParseFragment(xml)
	if err != nil {
		t.Fatalf("ParseFragment(%q): %v", xml, err)
	}
	return f
}

func TestSpliceInsertAppend(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	frag := mustFrag(t, `<person id="p2"><name>Carol</name><age>41</age></person>`)

	at := d.End(people) + 1
	nd, res, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: frag})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	// person, @id, name, #text, age, #text.
	if res.NodesAdded != 6 || res.NodesRemoved != 0 {
		t.Fatalf("res = %+v, want 6 added, 0 removed", res)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if s.Doc(id) != nd {
		t.Fatalf("commit did not publish the new version")
	}
	if nd.Version() != 2 {
		t.Fatalf("version = %d, want 2", nd.Version())
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "person"); len(refs) != 3 {
		t.Fatalf("person count after insert = %d, want 3", len(refs))
	}
	if refs := s.Value(id, "Carol"); len(refs) != 2 {
		t.Fatalf("Value(Carol) = %d refs, want 2 (element + text)", len(refs))
	}
}

func TestSpliceInsertFirst(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	frag := mustFrag(t, `<person id="px"><name>Zed</name></person>`)

	at := d.FirstChild(people)
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: frag})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	// The new person is the first child; Alice shifted but survives.
	if got := nd.Tag(nd.FirstChild(people)); got != "person" {
		t.Fatalf("first child tag = %q", got)
	}
	if refs := s.Value(id, "Alice"); len(refs) != 2 {
		t.Fatalf("Value(Alice) = %d refs after shift, want 2", len(refs))
	}
}

func TestSpliceDelete(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	bob := ordOf(t, s, id, "person", 1)
	people := d.Parent(bob)

	nd, res, err := s.BuildSplice(d, SpliceOp{Parent: people, At: bob, DelEnd: d.End(bob) + 1})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if res.NodesRemoved != int(d.End(bob)+1-bob) || res.NodesAdded != 0 {
		t.Fatalf("res = %+v", res)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "person"); len(refs) != 1 {
		t.Fatalf("person count after delete = %d, want 1", len(refs))
	}
	if refs := s.Value(id, "Bob"); len(refs) != 0 {
		t.Fatalf("Value(Bob) = %d refs after delete, want 0", len(refs))
	}
}

func TestSpliceReplace(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	bidder := ordOf(t, s, id, "bidder", 0)
	auction := d.Parent(bidder)
	frag := mustFrag(t, `<bidder><personref person="p1"/><increase>9</increase></bidder>`)

	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: auction, At: bidder, DelEnd: d.End(bidder) + 1, Frag: frag})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "bidder"); len(refs) != 2 {
		t.Fatalf("bidder count after replace = %d, want 2", len(refs))
	}
	if refs := s.Value(id, "9"); len(refs) != 2 {
		t.Fatalf("Value(9) = %d refs, want 2", len(refs))
	}
	if refs := s.Value(id, "3"); len(refs) != 0 {
		t.Fatalf("Value(3) = %d refs after replace, want 0", len(refs))
	}
}

func TestSpliceDeleteAttribute(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	attr := ordOf(t, s, id, "@id", 0)
	person := d.Parent(attr)

	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: person, At: attr, DelEnd: attr + 1})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "@id"); len(refs) != 2 {
		t.Fatalf("@id count = %d, want 2", len(refs))
	}
	// The deleted attribute's value drops out; the personref attribute
	// sharing the string survives.
	if refs := s.Value(id, "p0"); len(refs) != 1 {
		t.Fatalf("Value(p0) = %d refs after attribute delete, want 1", len(refs))
	}
}

func TestSpliceContentInvariant(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	name := ordOf(t, s, id, "name", 0)
	text := d.FirstChild(name)
	if d.Kind(text) != xmltree.Text {
		t.Fatalf("expected text child under name")
	}
	// Deleting the text child would change the parent's concatenated
	// content — the splice layer must refuse.
	_, _, err := s.BuildSplice(d, SpliceOp{Parent: name, At: text, DelEnd: text + 1})
	if !errors.Is(err, ErrSpliceContent) {
		t.Fatalf("err = %v, want ErrSpliceContent", err)
	}
}

func TestSpliceBadOps(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	name := ordOf(t, s, id, "name", 0)
	text := d.FirstChild(name)
	person := ordOf(t, s, id, "person", 0)

	cases := []struct {
		what string
		op   SpliceOp
	}{
		{"text parent", SpliceOp{Parent: text, At: text + 1, DelEnd: text + 1, Frag: mustFrag(t, `<x/>`)}},
		{"not a child boundary", SpliceOp{Parent: people, At: name, DelEnd: name, Frag: mustFrag(t, `<x/>`)}},
		{"splits a subtree", SpliceOp{Parent: people, At: person, DelEnd: person + 2}},
		{"empty splice", SpliceOp{Parent: people, At: person, DelEnd: person}},
		{"range outside parent", SpliceOp{Parent: name, At: d.End(people) + 1, DelEnd: d.End(people) + 1, Frag: mustFrag(t, `<x/>`)}},
	}
	for _, c := range cases {
		if _, _, err := s.BuildSplice(d, c.op); !errors.Is(err, ErrBadSplice) {
			t.Errorf("%s: err = %v, want ErrBadSplice", c.what, err)
		}
	}
}

func TestCommitConflict(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1

	a, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="a"><name>A</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice a: %v", err)
	}
	b, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="b"><name>B</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice b: %v", err)
	}
	if err := s.Commit(d, a); err != nil {
		t.Fatalf("Commit a: %v", err)
	}
	if err := s.Commit(d, b); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("second commit from the same base: err = %v, want ErrVersionConflict", err)
	}
	// The losing commit left the winner in place.
	if s.Doc(id) != a {
		t.Fatalf("conflicting commit disturbed the published version")
	}
	checkOracle(t, s.Doc(id))
}

func TestPinSnapshotIsolation(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	pinned := s.Pin()

	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="p9"><name>New</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// The pinned view still resolves the pre-commit version.
	if got := pinned.Doc(id); got != d || got.Version() != 1 {
		t.Fatalf("pinned view sees version %d, want the pinned version 1", got.Version())
	}
	if refs := pinned.Tag(id, "person"); len(refs) != 2 {
		t.Fatalf("pinned view person count = %d, want pre-commit 2", len(refs))
	}
	if refs := s.Tag(id, "person"); len(refs) != 3 {
		t.Fatalf("live store person count = %d, want 3", len(refs))
	}

	// A pinned view is read-only.
	if _, err := pinned.LoadXML("other.xml", strings.NewReader(`<a/>`)); err == nil {
		t.Fatalf("LoadXML into pinned view succeeded")
	}
	if err := pinned.Commit(d, nd); err == nil {
		t.Fatalf("Commit into pinned view succeeded")
	}
	if err := pinned.LoadSnapshot(t.TempDir()); err == nil {
		t.Fatalf("LoadSnapshot into pinned view succeeded")
	}
}

func TestVersionCounters(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	if v, ok := s.DocVersion("auction.xml"); !ok || v != 1 {
		t.Fatalf("DocVersion = %d, %v; want 1, true", v, ok)
	}
	if g := s.UpdateGeneration(); g != 0 {
		t.Fatalf("UpdateGeneration = %d before any commit", g)
	}

	release := s.BeginMutation()
	if got := s.InFlightWriters(); got != 1 {
		t.Fatalf("InFlightWriters = %d, want 1", got)
	}
	release()
	release() // idempotent
	if got := s.InFlightWriters(); got != 0 {
		t.Fatalf("InFlightWriters = %d after release, want 0", got)
	}

	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<extra/>`)})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if g := s.UpdateGeneration(); g != 1 {
		t.Fatalf("UpdateGeneration = %d, want 1", g)
	}
	if v, ok := s.DocVersion("auction.xml"); !ok || v != 2 {
		t.Fatalf("DocVersion = %d, %v; want 2, true", v, ok)
	}
	if v, ok := s.DocVersion("absent.xml"); ok || v != 0 {
		t.Fatalf("DocVersion of an absent document = %d, %v; want 0, false", v, ok)
	}
	// The superseded version is still reachable through d, so it counts as
	// live alongside the current one.
	if got := s.VersionsLive(); got != 2 {
		t.Fatalf("VersionsLive = %d, want 2", got)
	}
	_ = d.Len() // keep the old version reachable until the check above ran
}

func TestLoadSnapshotRejectsInFlightWriters(t *testing.T) {
	s, _ := load(t)
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	s2 := New()
	release := s2.BeginMutation()
	if err := s2.LoadSnapshot(dir); !errors.Is(err, ErrConcurrentMutation) {
		t.Fatalf("LoadSnapshot with writer in flight: err = %v, want ErrConcurrentMutation", err)
	}
	release()
	if err := s2.LoadSnapshot(dir); err != nil {
		t.Fatalf("LoadSnapshot after release: %v", err)
	}
	defer s2.Close()
}

func TestSnapshotVersionRoundTrip(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="s"><name>Snap</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if g, err := SnapshotUpdateGen(dir); err != nil || g != 1 {
		t.Fatalf("SnapshotUpdateGen = %d, %v; want 1", g, err)
	}

	s2, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer s2.Close()
	if v, ok := s2.DocVersion("auction.xml"); !ok || v != 2 {
		t.Fatalf("reopened DocVersion = %d, %v; want 2", v, ok)
	}
	if g := s2.UpdateGeneration(); g != 1 {
		t.Fatalf("reopened UpdateGeneration = %d, want 1", g)
	}
	id2, ok := s2.Lookup("auction.xml")
	if !ok {
		t.Fatalf("reopened snapshot lost the document")
	}
	if got, want := s2.Doc(id2).Fingerprint(), s.Doc(id).Fingerprint(); got != want {
		t.Fatalf("snapshot-after-update does not round-trip:\n--- reopened ---\n%s\n--- live ---\n%s", got, want)
	}
}

func TestMutateFaultInjection(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	op := SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="f"><name>F</name></person>`)}

	nd, _, err := s.BuildSplice(d, op)
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := faultinject.Enable(faultinject.PointMutateCommit + "=error"); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	err = s.Commit(d, nd)
	faultinject.Disable()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("commit fault: err = %v, want ErrInjected", err)
	}
	if s.Doc(id) != d || s.UpdateGeneration() != 0 {
		t.Fatalf("failed commit left the store on a new version")
	}

	// The same prepared version commits cleanly once the fault clears.
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit after fault cleared: %v", err)
	}
	checkOracle(t, s.Doc(id))
}

// TestSupersededVersionIsReleased: a version a commit supersedes stays
// counted in VersionsLive while a pinned view still reaches it, and is
// released by the collector once the last reference drops.
func TestSupersededVersionIsReleased(t *testing.T) {
	s, id := load(t)
	pin := s.Pin()
	const updates = 20
	for i := 0; i < updates; i++ {
		d := s.Doc(id)
		at := d.End(0) + 1
		nd, _, err := s.BuildSplice(d, SpliceOp{Parent: 0, At: at, DelEnd: at, Frag: mustFrag(t, `<x/>`)})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if err := s.Commit(d, nd); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	runtime.GC()
	runtime.GC()
	if got := s.VersionsLive(); got < 2 || got > updates+1 {
		t.Fatalf("%d versions live while the first one is pinned, want 2..%d", got, updates+1)
	}
	if pin.Doc(id).Version() != 1 {
		t.Fatal("the pinned view moved")
	}
	runtime.KeepAlive(pin)

	for deadline := time.Now().Add(10 * time.Second); s.VersionsLive() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d versions live after every reference dropped, want 1", s.VersionsLive())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSpliceDistinctCounts walks the three cases a value's postings list
// distinguishes, by hand: inserting a value other nodes already hold (the
// list grows), deleting one of several holders (it shrinks), deleting the
// last holder (the value leaves the index) — each checked against the
// rebuild-from-XML oracle.
func TestSpliceDistinctCounts(t *testing.T) {
	s, id := load(t)
	holders := func(v string) int { return len(s.Doc(id).valueRefsByName(v)) }
	splice := func(op SpliceOp) {
		t.Helper()
		d := s.Doc(id)
		nd, _, err := s.BuildSplice(d, op)
		if err != nil {
			t.Fatalf("BuildSplice: %v", err)
		}
		if err := s.Commit(d, nd); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		checkOracle(t, nd)
	}
	thirties := holders("30") // both persons are 30
	if thirties == 0 || holders("41") != 0 {
		t.Fatalf("at load: %d holders of 30, %d of 41; want some and none", thirties, holders("41"))
	}

	// A third 30 and, twice in one fragment, a first 41: each <age> and its
	// text node hold the value.
	people := ordOf(t, s, id, "people", 0)
	at := s.Doc(id).End(people) + 1
	splice(SpliceOp{Parent: people, At: at, DelEnd: at,
		Frag: mustFrag(t, `<person id="p2"><age>30</age><age>41</age><age>41</age></person>`)})
	if got, want := holders("30"), thirties+2; got != want {
		t.Fatalf("%d holders of 30 after inserting one more, want %d", got, want)
	}
	if got := holders("41"); got != 4 {
		t.Fatalf("%d holders of 41 after inserting two, want 4", got)
	}

	// One of the two 41s goes: 41 is still held.
	d := s.Doc(id)
	ages := s.Tag(id, "age")
	last := ages[len(ages)-1]
	splice(SpliceOp{Parent: d.Parent(last), At: last, DelEnd: d.End(last) + 1})
	if got := holders("41"); got != 2 {
		t.Fatalf("%d holders of 41 after deleting one of two, want 2", got)
	}

	// The other 41 goes: nobody holds it any more.
	d = s.Doc(id)
	ages = s.Tag(id, "age")
	last = ages[len(ages)-1]
	splice(SpliceOp{Parent: d.Parent(last), At: last, DelEnd: d.End(last) + 1})
	if got := holders("41"); got != 0 {
		t.Fatalf("%d holders of 41 after deleting the last, want 0", got)
	}
	if got, want := holders("30"), thirties+2; got != want {
		t.Fatalf("%d holders of 30 after deleting the 41s, want %d", got, want)
	}
}

// FuzzMutate drives random valid insert/delete/replace sequences against
// the store and checks after every commit that the spliced document is
// byte-for-byte semantically identical (columns, indexes) to
// a fresh load of its own serialization — the rebuild-from-XML oracle —
// and that its incrementally maintained postings are what
// derive builds from its columns.
func FuzzMutate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 23})
	f.Add([]byte{200, 3, 17, 42, 250, 1, 7, 99, 128, 64, 32, 16, 8, 4, 2, 1})
	// Insert the repeating fragments several times over, then delete and
	// replace among them, well past six operations.
	f.Add([]byte{1, 0, 0, 4, 1, 0, 1, 4, 12, 0, 0, 5, 12, 0, 1, 5, 2, 0, 0, 6, 2, 0, 1, 6,
		1, 1, 0, 0, 1, 1, 1, 0, 12, 1, 0, 0, 12, 2, 1, 6, 2, 1, 0, 0, 2, 1, 0, 0, 1, 2, 0, 4, 1, 1, 0, 0})
	// The last three repeat a value inside the fragment and carry values
	// that nodes of sampleXML (and earlier copies of themselves) also hold,
	// so the value postings see every case: a value
	// inserted that is already present, one of several holders deleted,
	// the last holder deleted.
	fragments := []string{
		`<person id="f0"><name>Fuzz</name></person>`,
		`<extra/>`,
		`<bidder><personref person="p9"/><increase>1</increase></bidder>`,
		`<note lang="en">hi</note>`,
		`<person id="p0"><name>Alice</name><name>Alice</name><age>30</age></person>`,
		`<bidder><personref person="p1"/><increase>3</increase><increase>3</increase><increase>5</increase></bidder>`,
		`<age>30</age>`,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		id, err := s.LoadXML("auction.xml", strings.NewReader(sampleXML))
		if err != nil {
			t.Fatalf("LoadXML: %v", err)
		}
		ops := 0
		for i := 0; i+3 < len(data) && ops < 48; i += 4 {
			d := s.Doc(id)
			n := int32(d.Len())
			p := int32(data[i]) % n
			for d.Kind(p) != xmltree.Element {
				p = (p + 1) % n
			}
			// Child boundaries past the attribute run (insert positions) and
			// deletable children (attributes and elements; deleting a text
			// child would change the parent's content).
			var bounds, dels []int32
			for c := d.FirstChild(p); c >= 0 && c <= d.End(p); c = d.End(c) + 1 {
				if d.Kind(c) != xmltree.Attribute {
					bounds = append(bounds, c)
				}
				if d.Kind(c) != xmltree.Text {
					dels = append(dels, c)
				}
			}
			bounds = append(bounds, d.End(p)+1)

			var op SpliceOp
			switch action := data[i+1] % 3; {
			case action == 0: // insert
				at := bounds[int(data[i+2])%len(bounds)]
				op = SpliceOp{Parent: p, At: at, DelEnd: at,
					Frag: mustFrag(t, fragments[int(data[i+3])%len(fragments)])}
			case action == 1 && len(dels) > 0: // delete
				c := dels[int(data[i+2])%len(dels)]
				op = SpliceOp{Parent: p, At: c, DelEnd: d.End(c) + 1}
			case action == 2 && len(dels) > 0: // replace
				c := dels[int(data[i+2])%len(dels)]
				op = SpliceOp{Parent: p, At: c, DelEnd: d.End(c) + 1,
					Frag: mustFrag(t, fragments[int(data[i+3])%len(fragments)])}
			default:
				continue
			}
			nd, _, err := s.BuildSplice(d, op)
			if err != nil {
				t.Fatalf("op %d: BuildSplice(%+v): %v", ops, op, err)
			}
			checkDerived(t, nd)
			if err := s.Commit(d, nd); err != nil {
				t.Fatalf("op %d: Commit: %v", ops, err)
			}
			checkOracle(t, nd)
			ops++
		}
	})
}
