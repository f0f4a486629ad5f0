package mutate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tlc/internal/faultinject"
	"tlc/internal/governor"
	"tlc/internal/store"
)

const auctionXML = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>30</age></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3</increase></bidder>
    </open_auction>
  </open_auctions>
</site>`

func loadStore(t *testing.T, name, xml string) (*store.Store, store.DocID) {
	t.Helper()
	s := store.New()
	id, err := s.LoadXML(name, strings.NewReader(xml))
	if err != nil {
		t.Fatalf("LoadXML: %v", err)
	}
	return s, id
}

// checkOracle compares the updated document against a fresh load of its
// own serialization: tree, indexes and statistics must all agree.
func checkOracle(t *testing.T, s *store.Store, id store.DocID) {
	t.Helper()
	d := s.Doc(id)
	fresh := store.New()
	fid, err := fresh.LoadXML(d.Name(), strings.NewReader(d.XML(0)))
	if err != nil {
		t.Fatalf("oracle reload: %v", err)
	}
	if got, want := d.Fingerprint(), fresh.Doc(fid).Fingerprint(); got != want {
		t.Fatalf("fingerprint diverges from rebuild oracle:\n--- updated ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

func apply(t *testing.T, s *store.Store, req Request) Result {
	t.Helper()
	res, err := Apply(context.Background(), s, req)
	if err != nil {
		t.Fatalf("Apply(%+v): %v", req, err)
	}
	return res
}

func TestApplyInsertPositions(t *testing.T) {
	s, id := loadStore(t, "a.xml", auctionXML)

	res := apply(t, s, Request{Doc: "a.xml", Op: Insert, Target: "/site/people",
		Fragment: `<person id="p2"><name>Carol</name></person>`})
	if res.Version != 2 || res.NodesAdded != 4 || res.NodesRemoved != 0 {
		t.Fatalf("into: res = %+v", res)
	}
	checkOracle(t, s, id)

	apply(t, s, Request{Doc: "a.xml", Op: Insert, Target: "/site/people", Position: PosFirst,
		Fragment: `<person id="p3"><name>Dan</name></person>`})
	checkOracle(t, s, id)

	apply(t, s, Request{Doc: "a.xml", Op: Insert, Target: "/site/people/person[2]", Position: PosBefore,
		Fragment: `<person id="p4"><name>Eve</name></person>`})
	checkOracle(t, s, id)

	apply(t, s, Request{Doc: "a.xml", Op: Insert, Target: "/site/people/person[5]", Position: PosAfter,
		Fragment: `<person id="p5"><name>Fay</name></person>`})
	checkOracle(t, s, id)

	if got := len(s.Tag(id, "person")); got != 6 {
		t.Fatalf("person count = %d, want 6", got)
	}
	// Order: Dan (first), Alice, Eve (before #2 == Alice... resolved per
	// current version), then the rest; just pin the first child.
	d := s.Doc(id)
	people, _ := resolveTarget(d, "/site/people")
	first, ok := childByTag(d, people, "person", 1)
	if !ok || d.Tag(d.FirstChild(first)+1) == "" {
		t.Fatalf("no person under people")
	}
	if v, _ := s.DocVersion("a.xml"); v != 5 {
		t.Fatalf("version = %d, want 5 after four updates", v)
	}
}

// valueRefs counts the nodes with content v under tag and the text nodes
// holding v, through the tag and value postings evaluation reads.
func valueRefs(s *store.Store, id store.DocID, tag, v string) int {
	return len(s.TagValue(id, tag, v)) + len(s.TagValue(id, "#text", v))
}

func TestApplyDelete(t *testing.T) {
	s, id := loadStore(t, "a.xml", auctionXML)
	res := apply(t, s, Request{Doc: "a.xml", Op: Delete, Target: "/site/people/person[2]"})
	if res.NodesRemoved != 6 || res.NodesAdded != 0 {
		t.Fatalf("res = %+v", res)
	}
	checkOracle(t, s, id)
	if got := len(s.Tag(id, "person")); got != 1 {
		t.Fatalf("person count = %d, want 1", got)
	}
	if got := valueRefs(s, id, "name", "Bob"); got != 0 {
		t.Fatalf("Bob still indexed after delete")
	}
}

func TestApplyDeleteAttribute(t *testing.T) {
	s, id := loadStore(t, "a.xml", auctionXML)
	apply(t, s, Request{Doc: "a.xml", Op: Delete, Target: "/site/people/person[1]/@id"})
	checkOracle(t, s, id)
	if got := len(s.Tag(id, "@id")); got != 2 {
		t.Fatalf("@id count = %d, want 2", got)
	}
}

func TestApplyDeleteCoalescesText(t *testing.T) {
	s, id := loadStore(t, "m.xml", `<doc><p>alpha<b>x</b>omega</p><p>solo</p></doc>`)
	res := apply(t, s, Request{Doc: "m.xml", Op: Delete, Target: "/doc/p[1]/b"})
	// The two text neighbours and the element go; one merged text returns.
	if res.NodesRemoved != 4 || res.NodesAdded != 1 {
		t.Fatalf("res = %+v, want 4 removed, 1 added", res)
	}
	checkOracle(t, s, id)
	if got := valueRefs(s, id, "p", "alphaomega"); got != 2 {
		t.Fatalf("Value(alphaomega) = %d refs, want 2 (element + merged text)", got)
	}
	d := s.Doc(id)
	if got := d.XML(0); got != `<doc><p>alphaomega</p><p>solo</p></doc>` {
		t.Fatalf("serialized = %s", got)
	}
}

func TestApplyReplace(t *testing.T) {
	s, id := loadStore(t, "a.xml", auctionXML)
	res := apply(t, s, Request{Doc: "a.xml", Op: Replace,
		Target:   "/site/open_auctions/open_auction/bidder",
		Fragment: `<bidder><personref person="p1"/><increase>7</increase></bidder>`})
	if res.NodesRemoved != 5 || res.NodesAdded != 5 {
		t.Fatalf("res = %+v", res)
	}
	checkOracle(t, s, id)
	if got := valueRefs(s, id, "increase", "7"); got != 2 {
		t.Fatalf("Value(7) = %d refs, want 2", got)
	}
	if got := valueRefs(s, id, "increase", "3"); got != 0 {
		t.Fatalf("old increase value still indexed")
	}
}

func TestApplyOrdinalTarget(t *testing.T) {
	s, id := loadStore(t, "a.xml", auctionXML)
	d := s.Doc(id)
	bob, err := resolveTarget(d, "/site/people/person[2]")
	if err != nil {
		t.Fatalf("resolveTarget: %v", err)
	}
	apply(t, s, Request{Doc: "a.xml", Op: Delete, Target: "#" + itoa(bob)})
	checkOracle(t, s, id)
	if got := len(s.Tag(id, "person")); got != 1 {
		t.Fatalf("person count = %d, want 1", got)
	}
}

func itoa(v int32) string {
	b := [12]byte{}
	i := len(b)
	n := v
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(b[i:])
}

func TestApplyErrors(t *testing.T) {
	s, _ := loadStore(t, "a.xml", auctionXML)
	cases := []struct {
		what string
		req  Request
		want error
	}{
		{"unknown doc", Request{Doc: "nope.xml", Op: Delete, Target: "/site"}, ErrUnknownDocument},
		{"delete root", Request{Doc: "a.xml", Op: Delete, Target: "/site"}, ErrBadTarget},
		{"replace root", Request{Doc: "a.xml", Op: Replace, Target: "/site", Fragment: `<x/>`}, ErrBadTarget},
		{"missing fragment", Request{Doc: "a.xml", Op: Insert, Target: "/site/people"}, ErrBadRequest},
		{"delete with fragment", Request{Doc: "a.xml", Op: Delete, Target: "/site/people/person[1]", Fragment: `<x/>`}, ErrBadRequest},
		{"bad position", Request{Doc: "a.xml", Op: Insert, Target: "/site/people", Position: "sideways", Fragment: `<x/>`}, ErrBadRequest},
		{"relative path", Request{Doc: "a.xml", Op: Delete, Target: "people/person[1]"}, ErrBadTarget},
		{"wrong root", Request{Doc: "a.xml", Op: Delete, Target: "/nosite/people"}, ErrBadTarget},
		{"missing child", Request{Doc: "a.xml", Op: Delete, Target: "/site/people/person[9]"}, ErrBadTarget},
		{"attr step not last", Request{Doc: "a.xml", Op: Delete, Target: "/site/people/@id/person"}, ErrBadTarget},
		{"ordinal out of range", Request{Doc: "a.xml", Op: Delete, Target: "#9999"}, ErrBadTarget},
		{"malformed index", Request{Doc: "a.xml", Op: Delete, Target: "/site/people/person[x]"}, ErrBadTarget},
		{"bad fragment xml", Request{Doc: "a.xml", Op: Insert, Target: "/site/people", Fragment: `<unclosed`}, ErrBadRequest},
		{"insert before root", Request{Doc: "a.xml", Op: Insert, Target: "/site", Position: PosBefore, Fragment: `<x/>`}, ErrBadTarget},
		{"insert into attribute", Request{Doc: "a.xml", Op: Insert, Target: "/site/people/person[1]/@id", Fragment: `<x/>`}, ErrBadTarget},
		{"replace attribute", Request{Doc: "a.xml", Op: Replace, Target: "/site/people/person[1]/@id", Fragment: `<x/>`}, ErrBadTarget},
	}
	for _, c := range cases {
		if _, err := Apply(context.Background(), s, c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.what, err, c.want)
		}
	}
	// Nothing committed.
	if v, _ := s.DocVersion("a.xml"); v != 1 {
		t.Fatalf("version = %d after rejected requests, want 1", v)
	}
	if s.InFlightWriters() != 0 {
		t.Fatalf("writer epoch leaked")
	}
}

func TestApplyGovernorBudget(t *testing.T) {
	s, _ := loadStore(t, "a.xml", auctionXML)
	g := governor.New(governor.Limits{MaxArenaNodes: 2})
	ctx := governor.WithContext(context.Background(), g)
	_, err := Apply(ctx, s, Request{Doc: "a.xml", Op: Insert, Target: "/site/people",
		Fragment: `<person id="pX"><name>Big</name><age>9</age></person>`})
	var be *governor.ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if v, _ := s.DocVersion("a.xml"); v != 1 {
		t.Fatalf("budget-killed update committed anyway (version %d)", v)
	}
}

// TestApplyFaultInjected arms the commit fault point and checks an
// injected failure aborts the update with the store unchanged.
func TestApplyFaultInjected(t *testing.T) {
	s, id := loadStore(t, "a.xml", auctionXML)
	before := Counters()

	if err := faultinject.Enable(faultinject.PointMutateCommit + "=error"); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	_, err := Apply(context.Background(), s, Request{Doc: "a.xml", Op: Insert,
		Target: "/site/people", Fragment: `<person id="pF"><name>F</name></person>`})
	faultinject.Disable()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if v, _ := s.DocVersion("a.xml"); v != 1 {
		t.Fatalf("injected failure committed (version %d)", v)
	}
	if s.InFlightWriters() != 0 {
		t.Fatalf("writer epoch leaked")
	}
	if after := Counters(); after.Updates != before.Updates {
		t.Fatalf("failed updates counted as committed")
	}

	// The same request succeeds once injection is off.
	apply(t, s, Request{Doc: "a.xml", Op: Insert, Target: "/site/people",
		Fragment: `<person id="pF"><name>F</name></person>`})
	checkOracle(t, s, id)
	if after := Counters(); after.Updates != before.Updates+1 {
		t.Fatalf("committed update not counted")
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"insert": Insert, "delete": Delete, "replace": Replace} {
		k, err := ParseKind(s)
		if err != nil || k != want {
			t.Errorf("ParseKind(%s) = %v, %v", s, k, err)
		}
		if k.String() != s {
			t.Errorf("Kind.String() = %q, want %q", k.String(), s)
		}
	}
	if _, err := ParseKind("upsert"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("ParseKind(upsert) err = %v", err)
	}
}

// TestReplayPublishesOnce drives a Replay by hand: nothing it applies is
// visible before Publish, its results and counters are Apply's except that
// a replayed record applies no statistics deltas, sequence numbers may skip
// but not repeat, and an abandoned replay leaves the store as it found it.
func TestReplayPublishesOnce(t *testing.T) {
	s, id := loadStore(t, "auction.xml", auctionXML)
	base := s.Doc(id)
	insert := func(name string) Request {
		return Request{Doc: "auction.xml", Op: Insert, Target: "/site/people",
			Fragment: `<person id="` + name + `"><name>` + name + `</name></person>`}
	}
	ctx := context.Background()

	abandoned := NewReplay(s)
	if _, err := abandoned.Apply(ctx, 1, insert("lost")); err != nil {
		t.Fatal(err)
	}
	if s.InFlightWriters() != 1 {
		t.Fatal("a replay in progress is not an in-flight mutation")
	}
	abandoned.Close()
	if s.Doc(id) != base || s.UpdateGeneration() != 0 || s.InFlightWriters() != 0 {
		t.Fatal("an abandoned replay left a trace in the store")
	}

	before := Counters()
	r := NewReplay(s)
	for i, seq := range []uint64{1, 2, 5, 6} { // 3 and 4 are a legal gap
		res, err := r.Apply(ctx, seq, insert("r"+itoa(int32(i))))
		if err != nil {
			t.Fatalf("record %d: %v", seq, err)
		}
		if want := base.Version() + uint64(i) + 1; res.Version != want || res.NodesAdded != 4 {
			t.Fatalf("record %d: result %+v, want version %d and 4 nodes added", seq, res, want)
		}
		if s.Doc(id) != base || s.UpdateGeneration() != 0 {
			t.Fatalf("record %d is visible before Publish", seq)
		}
	}
	if _, err := r.Apply(ctx, 6, insert("again")); err == nil {
		t.Fatal("a repeated sequence number was accepted")
	}
	if _, err := r.Apply(ctx, 7, Request{Doc: "missing.xml", Op: Delete, Target: "/site"}); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("unknown document = %v", err)
	}
	if after := Counters(); after.Updates-before.Updates != 4 {
		t.Fatalf("replayed updates counted %d times, want 4", after.Updates-before.Updates)
	}
	if err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	if d := s.Doc(id); d.Version() != base.Version()+4 || s.UpdateGeneration() != 6 || s.InFlightWriters() != 0 {
		t.Fatalf("published version %d at generation %d, want %d at 6", d.Version(), s.UpdateGeneration(), base.Version()+4)
	}
	checkOracle(t, s, id)
}
