package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tlc/internal/xmark"
)

// churn drives a stationary insert/replace/delete script against one
// document, the store-level twin of the benchmark's write_only workload:
// a "slot" is the k-th person, a slot holds at most one <bnote> fragment
// (an id attribute nobody has seen before plus up to 24 <bline> texts from
// a pool of 24 000), and at most 64 fragments are alive at any time —
// so the document's size does not drift while the dictionaries only grow.
type churn struct {
	s    *Store
	id   DocID
	rng  *rand.Rand
	live []int // slots holding a fragment, oldest first
	n    int
}

func newChurn(tb testing.TB, factor float64) *churn {
	tb.Helper()
	s := New()
	id, err := s.Load(xmark.Generate("auction.xml", factor))
	if err != nil {
		tb.Fatalf("Load: %v", err)
	}
	return &churn{s: s, id: id, rng: rand.New(rand.NewSource(1))}
}

func (c *churn) fragment() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<bnote id="b%d">`, c.n)
	for i, k := 0, c.rng.Intn(25); i < k; i++ {
		fmt.Fprintf(&sb, `<bline>note %d line %d</bline>`, c.rng.Intn(1000), i)
	}
	sb.WriteString(`</bnote>`)
	return sb.String()
}

// step applies the script's next update and commits it.
func (c *churn) step(tb testing.TB) {
	tb.Helper()
	d := c.s.Doc(c.id)
	nd, _, err := c.s.BuildSplice(d, c.nextOp(tb, d))
	if err != nil {
		tb.Fatalf("update %d: BuildSplice: %v", c.n, err)
	}
	if err := c.s.Commit(d, nd); err != nil {
		tb.Fatalf("update %d: Commit: %v", c.n, err)
	}
}

// nextOp returns the script's next update as a splice of d, the newest
// version of the document.
func (c *churn) nextOp(tb testing.TB, d *Doc) SpliceOp {
	tb.Helper()
	persons := d.tagRefsByName("person")
	roll := c.rng.Intn(10)
	switch most := min(64, len(persons)/2); {
	case len(c.live) < most/8:
		roll = 0
	case len(c.live) > most:
		roll = 9
	}
	var op SpliceOp
	if roll < 4 { // insert into an empty slot
		slot := c.rng.Intn(len(persons))
		for c.holds(slot) {
			slot = c.rng.Intn(len(persons))
		}
		c.live = append(c.live, slot)
		p := persons[slot]
		at := d.End(p) + 1
		op = SpliceOp{Parent: p, At: at, DelEnd: at}
	} else { // replace or delete the oldest fragment
		slot := c.live[0]
		c.live = c.live[1:]
		p := persons[slot]
		note := d.End(p) // the fragment is the slot's last child: find its root
		for d.Parent(note) != p {
			note = d.Parent(note)
		}
		op = SpliceOp{Parent: p, At: note, DelEnd: d.End(note) + 1}
		if roll < 6 {
			c.live = append(c.live, slot)
		}
	}
	if roll < 6 {
		frag, err := ParseFragment(c.fragment())
		if err != nil {
			tb.Fatalf("ParseFragment: %v", err)
		}
		op.Frag = frag
	}
	c.n++
	return op
}

func (c *churn) holds(slot int) bool {
	for _, s := range c.live {
		if s == slot {
			return true
		}
	}
	return false
}

// allocated runs k updates and returns the bytes they allocated.
func (c *churn) allocated(tb testing.TB, k int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		c.step(tb)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUpdateCostIsHistoryIndependent pins the update cost model: what one
// splice allocates depends on the document and the fragment, not on how
// many updates came before. Bytes allocated are deterministic where wall
// time is not, and every per-update copy of something that only grows (the
// dictionary index was one) shows up in them.
func TestUpdateCostIsHistoryIndependent(t *testing.T) {
	c := newChurn(t, 0.02)
	early := c.allocated(t, 200)
	for c.n < 5000 {
		c.step(t)
	}
	late := c.allocated(t, 200)
	t.Logf("bytes per update: %d over updates 1-200, %d over updates 5001-5200 (%.2fx)",
		early/200, late/200, float64(late)/float64(early))
	if float64(late) > 1.25*float64(early) {
		t.Fatalf("updates 5001-5200 allocated %d bytes, updates 1-200 %d: more than 1.25x", late, early)
	}
	checkOracle(t, c.s.Doc(c.id))
}

// backing returns where each array of a version starts: columns and
// postings indexes. Arrays without capacity have no memory to share.
func backing(d *Doc) map[unsafe.Pointer]bool {
	at := map[unsafe.Pointer]bool{}
	add := func(p unsafe.Pointer, capacity int) {
		if capacity > 0 {
			at[p] = true
		}
	}
	for _, a := range [][]int32{d.c.end, d.c.level, d.c.parent, d.tagPost, d.valPost} {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range [][]uint32{d.c.tag, d.c.val} {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range [][]dirEntry{d.tagDir, d.valDir} {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	add(unsafe.Pointer(unsafe.SliceData(d.c.kind)), cap(d.c.kind))
	return at
}

func shared(a, b map[unsafe.Pointer]bool) int {
	n := 0
	for p := range a {
		if b[p] {
			n++
		}
	}
	return n
}

// TestPrivateChainNeverWritesTheBase drives the chain a replay keeps
// (mutate.Replay) at store level, next to a twin that commits every update:
// the first splice copies the base — mapped from a snapshot and pinned —
// and every later one edits that private version in place, which reads as
// the twin's version after every record; the base still reads as it did;
// the version published shares no array with it and is the twin's, columns
// and postings; and once published, a version is copied again
// rather than edited.
func TestPrivateChainNeverWritesTheBase(t *testing.T) {
	live := newChurn(t, 0.01)
	dir := t.TempDir()
	if _, err := live.s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base, pin := s.Doc(live.id), s.Pin()
	before := base.Fingerprint()
	p := base
	for i := 0; i < 400; i++ {
		d := live.s.Doc(live.id)
		op := live.nextOp(t, d)
		nd, _, err := live.s.BuildSplice(d, op)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if err := live.s.Commit(d, nd); err != nil {
			t.Fatal(err)
		}
		prev := p
		if p, _, err = s.SplicePrivate(p, op); err != nil {
			t.Fatalf("update %d in place: %v", i, err)
		}
		if (i == 0) == (p == prev) {
			t.Fatalf("update %d: spliced into a new version %v, want only the first", i, p != prev)
		}
		if p.Version() != nd.Version() || (i%50 == 49 && p.XML(0) != nd.XML(0)) {
			t.Fatalf("update %d: the private version and the twin diverge", i)
		}
	}
	if err := s.CommitPrivate(401, [][2]*Doc{{base, p}}); err != nil {
		t.Fatal(err)
	}
	got := s.Doc(live.id)
	if got != p || s.UpdateGeneration() != 401 {
		t.Fatalf("published %p at generation %d, want the private version at 401", got, s.UpdateGeneration())
	}
	if got.Fingerprint() != live.s.Doc(live.id).Fingerprint() {
		t.Error("the published version is not the twin's")
	}
	checkOracle(t, got)
	if n := shared(backing(got), backing(base)); n != 0 {
		t.Errorf("the published version shares %d arrays with the base", n)
	}
	if pin.Doc(live.id) != base || base.Fingerprint() != before {
		t.Error("the base version was modified")
	}
	tail := SpliceOp{Parent: 0, At: got.End(0) + 1, DelEnd: got.End(0) + 1, Frag: mustFrag(t, `<x/>`)}
	if next, _, err := s.SplicePrivate(got, tail); err != nil || next == got || shared(backing(next), backing(got)) != 0 {
		t.Errorf("a published version was spliced in place (%v)", err)
	}
	if err := s.CommitPrivate(402, [][2]*Doc{{got, got}}); !errors.Is(err, ErrBadSplice) {
		t.Errorf("publishing a published version again = %v, want ErrBadSplice", err)
	}
}

// TestSpliceMaintainsWhatLoadDerives is the differential oracle between the
// two ways a version gets its postings: a live splice carries
// them forward incrementally, a replayed version derives them from its
// columns when it is published. After every update of the churn they must
// agree.
func TestSpliceMaintainsWhatLoadDerives(t *testing.T) {
	c := newChurn(t, 0.01)
	for i := 0; i < 300; i++ {
		d := c.s.Doc(c.id)
		nd, _, err := c.s.BuildSplice(d, c.nextOp(t, d))
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		checkDerived(t, nd)
		if err := c.s.Commit(d, nd); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkSpliceAfterHistory times one update on a fresh store and on one
// that has already taken 8000: the two must read alike.
func BenchmarkSpliceAfterHistory(b *testing.B) {
	for _, history := range []int{0, 8000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			c := newChurn(b, 0.1)
			for c.n < history {
				c.step(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step(b)
			}
		})
	}
}

// TestDictSharedByReadersAndWriter runs, under the race detector, what
// the shared append-only dictionary must allow: while one writer splices
// (interning new strings into the store dictionary on every update),
// readers resolve names and IDs through it, and queries pinned on an old
// version keep reading that version's strings unchanged.
func TestDictSharedByReadersAndWriter(t *testing.T) {
	c := newChurn(t, 0.01)
	vals := c.s.Doc(c.id).vals
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() { // names and IDs of the published version resolve both ways
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := c.s.Doc(c.id)
				for ord := int32(d.Len()) - 1; ord >= 0; ord -= 7 {
					v := d.c.val[ord]
					if v == 0 {
						continue
					}
					if got, ok := vals.lookup(vals.str(v - 1)); !ok || got != v-1 {
						t.Errorf("node %d: lookup(str(%d)) = %d, %v", ord, v-1, got, ok)
						return
					}
				}
				vals.lookup("never interned")
			}
		}()
		go func() { // a pinned version reads the same however the dictionary grows
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := c.s.Pin()
				d := pin.Doc(c.id)
				before := d.XML(0)
				runtime.Gosched()
				if d.XML(0) != before || len(pin.Tag(c.id, "person")) == 0 {
					t.Error("pinned version changed under a concurrent writer")
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		c.step(t)
	}
	close(stop)
	wg.Wait()
	checkOracle(t, c.s.Doc(c.id))
}

// TestSnapshotDropsDeadStrings: the live dictionary remembers every string
// updates brought, the checkpoint writes only those some document still
// indexes — so a store reopened from it starts with a dictionary the size
// of its documents, and keeps taking updates.
func TestSnapshotDropsDeadStrings(t *testing.T) {
	c := newChurn(t, 0.01)
	for c.n < 400 {
		c.step(t)
	}
	d := c.s.Doc(c.id)
	if live, all := len(d.valDir), d.vals.size(); all < live+300 {
		t.Fatalf("script left %d value strings for %d live ones: no garbage to drop", all, live)
	}
	dir := t.TempDir()
	if _, err := c.s.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	re, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer re.Close()
	rd := re.Doc(c.id)
	if got, want := rd.vals.size(), len(d.valDir); got != want {
		t.Errorf("reopened value dictionary holds %d strings, the document indexes %d", got, want)
	}
	if got, want := rd.tags.size(), len(d.tagDir); got != want {
		t.Errorf("reopened tag dictionary holds %d strings, the document indexes %d", got, want)
	}
	if got, want := rd.Fingerprint(), d.Fingerprint(); got != want {
		t.Fatalf("snapshot without dead strings does not round-trip:\n--- reopened ---\n%s\n--- live ---\n%s", got, want)
	}
	// The reopened columns and dictionaries are views of the mapped file;
	// updates carry them forward all the same.
	c.s = re
	for i := 0; i < 50; i++ {
		c.step(t)
	}
	checkOracle(t, re.Doc(c.id))
}
