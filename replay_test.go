package tlc

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tlc/internal/store"
	"tlc/internal/xmark"
)

// Recovery replays the log on versions private to the replay and publishes
// every document once (AttachWAL, mutate.Replay). The tests here hold that
// to what per-record replay produced: the same bytes, versions and
// generation, from any base, at a cost in memory that does not grow with
// the number of records.

// noteScript is a request-level update script over XMark documents: every
// update inserts, replaces or deletes a <bnote> fragment under a person,
// addressed by position, and the number of fragments alive stays between
// an eighth of most and most (at first 64, or half the persons if that is
// fewer) — so the documents are stationary while most is, and grow or shrink
// when the test moves it.
type noteScript struct {
	rng     *rand.Rand
	docs    []string
	persons int
	most    int
	live    [][2]int // (document, person) holding a fragment, oldest first
	n       int
}

func newNoteScript(seed int64, factor float64, docs ...string) *noteScript {
	persons := xmark.SizesFor(factor).Persons
	return &noteScript{rng: rand.New(rand.NewSource(seed)), docs: docs, persons: persons, most: min(64, persons*len(docs)/2)}
}

func (s *noteScript) next() UpdateRequest {
	s.n++
	roll := s.rng.Intn(10)
	switch {
	case len(s.live) < s.most/8:
		roll = 0
	case len(s.live) > s.most:
		roll = 9
	}
	if roll < 4 { // insert into a person that holds no fragment
		slot := [2]int{s.rng.Intn(len(s.docs)), s.rng.Intn(s.persons)}
		for s.holds(slot) {
			slot = [2]int{s.rng.Intn(len(s.docs)), s.rng.Intn(s.persons)}
		}
		s.live = append(s.live, slot)
		return UpdateRequest{Doc: s.docs[slot[0]], Op: UpdateInsert, Fragment: s.fragment(),
			Target: fmt.Sprintf("/site/people/person[%d]", slot[1]+1)}
	}
	slot := s.live[0] // replace or delete the oldest fragment
	s.live = s.live[1:]
	req := UpdateRequest{Doc: s.docs[slot[0]], Op: UpdateDelete,
		Target: fmt.Sprintf("/site/people/person[%d]/bnote[1]", slot[1]+1)}
	if roll < 6 {
		s.live = append(s.live, slot)
		req.Op, req.Fragment = UpdateReplace, s.fragment()
	}
	return req
}

func (s *noteScript) holds(slot [2]int) bool {
	for _, l := range s.live {
		if l == slot {
			return true
		}
	}
	return false
}

func (s *noteScript) fragment() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<bnote id="b%d">`, s.n)
	for i, k := 0, s.rng.Intn(25); i < k; i++ {
		fmt.Fprintf(&sb, `<bline>note %d line %d</bline>`, s.rng.Intn(1000), i)
	}
	sb.WriteString(`</bnote>`)
	return sb.String()
}

// run applies the script's next n updates to db.
func (s *noteScript) run(tb testing.TB, db *Database, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Update(s.next()); err != nil {
			tb.Fatalf("script update %d: %v", s.n, err)
		}
	}
}

// docState is what recovery must reproduce of one document.
type docState struct {
	version     uint64
	fingerprint string // columns, postings indexes and catalog (store.Doc.Fingerprint)
}

func docStates(db *Database) map[string]docState {
	st := dbStore(db)
	out := map[string]docState{}
	for _, name := range db.Documents() {
		id, _ := st.Lookup(name)
		d := st.Doc(id)
		out[name] = docState{d.Version(), d.Fingerprint()}
	}
	return out
}

// requireRecovered fails unless every document got holds is exactly what
// want holds of it, version and generation included.
func requireRecovered(t *testing.T, got *Database, want map[string]docState, wantGen uint64) {
	t.Helper()
	for name, g := range docStates(got) {
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: recovered but not in the original", name)
		}
		if g.version != w.version {
			t.Errorf("%s: recovered at version %d, original at %d", name, g.version, w.version)
		}
		if g.fingerprint != w.fingerprint {
			t.Errorf("%s: recovered columns, indexes or catalog differ from the original", name)
		}
	}
	if g := got.UpdateGeneration(); g != wantGen {
		t.Errorf("recovered at update generation %d, original at %d", g, wantGen)
	}
}

// namesOnDistinctShards returns two document names that a two-shard
// database routes to different shards.
func namesOnDistinctShards(t *testing.T, db *Database) (string, string) {
	t.Helper()
	first := "auction-0.xml"
	for i := 1; i < 64; i++ {
		if name := fmt.Sprintf("auction-%d.xml", i); db.ShardOfDocument(name) != db.ShardOfDocument(first) {
			return first, name
		}
	}
	t.Fatal("no two names on distinct shards")
	return "", ""
}

// TestReplayEquivalence runs a script live — one commit per record — on one
// database while logging it, replays the log onto a second database opened
// from the same base, and requires the two to agree on every document's
// fingerprint and version and on the update generation.
func TestReplayEquivalence(t *testing.T) {
	const factor = 0.01
	cases := []struct {
		name string
		// base opens a database in the state both the original and the
		// recovered one start from; dir is scratch space shared by the two.
		base func(t *testing.T, dir string) (*Database, []string)
		// live drives the original after its WAL is attached.
		live func(t *testing.T, db *Database, s *noteScript)
	}{
		{
			name: "two documents on two shards",
			base: func(t *testing.T, _ string) (*Database, []string) {
				db := Open(WithShards(2))
				a, b := namesOnDistinctShards(t, db)
				for _, name := range []string{a, b} {
					if err := db.LoadXMark(name, factor); err != nil {
						t.Fatal(err)
					}
				}
				return db, []string{a, b}
			},
			live: func(t *testing.T, db *Database, s *noteScript) { s.run(t, db, 300) },
		},
		{
			name: "grows past the recycled capacity and shrinks again",
			base: xmarkBase(factor),
			live: func(t *testing.T, db *Database, s *noteScript) {
				s.run(t, db, 40)
				s.most = s.persons - 1 // a fragment under nearly every person
				s.run(t, db, 500)
				s.most = 8
				s.run(t, db, 400)
			},
		},
		{
			name: "snapshot-opened, mapped read-only base",
			base: func(t *testing.T, dir string) (*Database, []string) {
				if !SnapshotExists(dir) {
					db, _ := xmarkBase(factor)(t, dir)
					newNoteScript(7, factor, "auction.xml").run(t, db, 30)
					if _, err := db.Snapshot(dir); err != nil {
						t.Fatal(err)
					}
				}
				db, err := OpenSnapshot(dir)
				if err != nil {
					t.Fatal(err)
				}
				return db, []string{"auction.xml"}
			},
			live: func(t *testing.T, db *Database, s *noteScript) { s.run(t, db, 200) },
		},
		{
			name: "sequence gap in the log",
			base: xmarkBase(factor),
			live: func(t *testing.T, db *Database, s *noteScript) {
				s.run(t, db, 20)
				// A snapshot of an unrelated store, 50 generations ahead,
				// loaded mid-log: the records after it start at 51.
				other := Open(WithShards(2))
				if err := other.LoadXMLString("other.xml", `<other><e>x</e></other>`); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 50; i++ {
					if _, err := other.Update(UpdateRequest{Doc: "other.xml", Op: UpdateInsert, Target: "/other", Fragment: "<e/>"}); err != nil {
						t.Fatal(err)
					}
				}
				snap := t.TempDir()
				if _, err := other.Snapshot(snap); err != nil {
					t.Fatal(err)
				}
				if err := db.LoadSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				s.run(t, db, 20)
				if g := db.UpdateGeneration(); g != 70 {
					t.Fatalf("original at generation %d, want 70", g)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, walDir := t.TempDir(), t.TempDir()
			orig, docs := tc.base(t, baseDir)
			attach(t, orig, walDir)
			tc.live(t, orig, newNoteScript(1, factor, docs...))
			want, wantGen := docStates(orig), orig.UpdateGeneration()
			if err := orig.Close(); err != nil {
				t.Fatal(err)
			}

			rec, _ := tc.base(t, baseDir)
			defer rec.Close()
			// The base versions stay pinned across the replay: recovery may
			// only read them.
			pinned, before := dbStore(rec).Pin(), docStates(rec)
			attach(t, rec, walDir)
			requireRecovered(t, rec, want, wantGen)
			for name, b := range before {
				id, _ := pinned.Lookup(name)
				if d := pinned.Doc(id); d.Version() != b.version || d.Fingerprint() != b.fingerprint {
					t.Errorf("%s: the version recovery started from was modified", name)
				}
			}
			// The recovered versions take live updates like any other.
			newNoteScript(2, factor, docs...).run(t, rec, 10)
		})
	}
}

func xmarkBase(factor float64) func(*testing.T, string) (*Database, []string) {
	return func(t *testing.T, _ string) (*Database, []string) {
		db := Open(WithShards(2))
		if err := db.LoadXMark("auction.xml", factor); err != nil {
			t.Fatal(err)
		}
		return db, []string{"auction.xml"}
	}
}

// FuzzReplay is TestReplayEquivalence over FuzzMutate's vocabulary, at
// request level: four bytes pick a document, a node, an operation with its
// position, and a fragment. Requests the live database refuses are not
// logged, so whatever the bytes say, the log replays.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 23})
	f.Add([]byte{200, 3, 17, 42, 250, 1, 7, 99, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{1, 0, 0, 4, 1, 0, 1, 4, 12, 0, 0, 5, 12, 0, 1, 5, 2, 0, 0, 6, 2, 0, 1, 6,
		1, 1, 0, 0, 1, 1, 1, 0, 12, 1, 0, 0, 12, 2, 1, 6, 2, 1, 0, 0, 2, 1, 0, 0, 1, 2, 0, 4, 1, 1, 0, 0})
	fragments := []string{
		`<person id="f0"><name>Fuzz</name></person>`,
		`<extra/>`,
		`<bidder><personref person="p9"/><increase>1</increase></bidder>`,
		`<note lang="en">hi</note>`,
		`<person id="p0"><name>Alice</name><name>Alice</name><age>30</age></person>`,
		`<bidder><personref person="p1"/><increase>3</increase><increase>3</increase><increase>5</increase></bidder>`,
		`<age>30</age>`,
	}
	positions := []string{UpdateInto, UpdateFirst, UpdateBefore, UpdateAfter}
	f.Fuzz(func(t *testing.T, data []byte) {
		open := func() (*Database, [2]string) {
			db := Open(WithShards(2))
			a, b := namesOnDistinctShards(t, db)
			for _, name := range []string{a, b} {
				if err := db.LoadXMLString(name, sampleXML); err != nil {
					t.Fatal(err)
				}
			}
			return db, [2]string{a, b}
		}
		walDir := t.TempDir()
		orig, docs := open()
		attach(t, orig, walDir, func(o *WALOptions) { o.Fsync = "off" })
		for i, ops := 0, 0; i+3 < len(data) && ops < 48; i += 4 {
			name := docs[data[i]>>7]
			id, _ := dbStore(orig).Lookup(name)
			req := UpdateRequest{Doc: name, Target: fmt.Sprintf("#%d", int(data[i]&0x7f)%dbStore(orig).Doc(id).Len())}
			switch data[i+1] % 3 {
			case 0:
				req.Op, req.Position = UpdateInsert, positions[int(data[i+2])%len(positions)]
			case 1:
				req.Op = UpdateDelete
			case 2:
				req.Op = UpdateReplace
			}
			if req.Op != UpdateDelete {
				req.Fragment = fragments[int(data[i+3])%len(fragments)]
			}
			if _, err := orig.Update(req); err == nil {
				ops++
			}
		}
		want, wantGen := docStates(orig), orig.UpdateGeneration()
		orig.Close()
		rec, _ := open()
		defer rec.Close()
		attach(t, rec, walDir)
		requireRecovered(t, rec, want, wantGen)
	})
}

// replayLog writes a log of n script records over a factor-sized XMark
// document and returns a snapshot of the base the log starts from (as a
// restarted server opens it: columns mapped, heap almost empty) and the log.
func replayLog(tb testing.TB, factor float64, n int) (snapDir, walDir string) {
	tb.Helper()
	snapDir, walDir = tb.TempDir(), tb.TempDir()
	db := Open(WithShards(2))
	if err := db.LoadXMark("auction.xml", factor); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Snapshot(snapDir); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.AttachWAL(WALOptions{Dir: walDir, Fsync: "off"}); err != nil {
		tb.Fatal(err)
	}
	newNoteScript(1, factor, "auction.xml").run(tb, db, n)
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return snapDir, walDir
}

// recoverLog opens the snapshot, replays the log onto it and returns the
// bytes the replay allocated.
func recoverLog(tb testing.TB, snapDir, walDir string, records int) uint64 {
	tb.Helper()
	db, err := OpenSnapshot(snapDir)
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := db.AttachWAL(WALOptions{Dir: walDir, Fsync: "off"})
	runtime.ReadMemStats(&after)
	if err != nil || stats.Applied != records {
		tb.Fatalf("replayed %d of %d records: %v", stats.Applied, records, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayAllocationIsRecordCountIndependent pins what a replayed record
// costs in memory: the fragment and the bookkeeping of its splice, not a
// version of the document. The first records of a replay allocate the two
// versions it ping-pongs between, so the gate is on the difference between
// a long and a short replay of one script: 900 further records allocate
// less than 900 tenths of the document's columns. (Replaying through
// per-record commits allocated all of the columns, and the postings, for
// every record.) Bytes allocated are deterministic where wall time is not.
func TestReplayAllocationIsRecordCountIndependent(t *testing.T) {
	const factor = 0.05
	snapShort, walShort := replayLog(t, factor, 100)
	snapLong, walLong := replayLog(t, factor, 1000)
	short := recoverLog(t, snapShort, walShort, 100)
	long := recoverLog(t, snapLong, walLong, 1000)

	db, err := OpenSnapshot(snapShort)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Five int32 columns, two uint32 columns and the kind byte per node.
	columns := uint64(dbStore(db).Doc(store.DocID(0)).Len()) * (5*4 + 2*4 + 1)
	perRecord := (long - short) / 900
	t.Logf("replay of 100 records allocated %d bytes, of 1000 records %d: %d bytes per further record, the document's columns are %d",
		short, long, perRecord, columns)
	if long < short || perRecord >= columns/10 {
		t.Fatalf("a replayed record allocates %d bytes, want less than a tenth of the document's columns (%d)", perRecord, columns)
	}
}

// BenchmarkReplay times the recovery of a fixed log: 500 records over a
// factor-0.1 document (the benchmark's write_only shape), snapshot-opened.
// One operation is one whole AttachWAL; -benchmem shows what it allocates.
func BenchmarkReplay(b *testing.B) {
	const records = 500
	snapDir, walDir := replayLog(b, 0.1, records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recoverLog(b, snapDir, walDir, records)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*records), "µs/record")
}
