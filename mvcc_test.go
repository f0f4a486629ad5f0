package tlc

import (
	"fmt"
	"sync"
	"testing"
)

// mutationScript is the scripted update sequence the post-update parity
// tests apply — every op kind and insert position, against XMark's people
// and open_auctions sections so the workload queries actually read the
// mutated ranges.
type scriptedOp struct {
	op       UpdateKind
	target   string
	position string
	fragment string
}

func mutationScript() []scriptedOp {
	person := func(id, name string, age int, income string) string {
		return fmt.Sprintf(`<person id=%q><name>%s</name><emailaddress>mailto:%s@probe.org</emailaddress><age>%d</age><profile income=%q><education>Graduate School</education><business>No</business></profile></person>`,
			id, name, id, age, income)
	}
	return []scriptedOp{
		{UpdateInsert, "/site/people", "", person("zz1", "Zed Appended", 61, "95000.00")},
		{UpdateInsert, "/site/people", UpdateFirst, person("zz2", "Yana First", 23, "12000.00")},
		{UpdateInsert, "/site/people/person[2]", UpdateBefore, person("zz3", "Xavi Before", 55, "88000.00")},
		{UpdateInsert, "/site/people/person[1]", UpdateAfter, person("zz4", "Wren After", 40, "45000.00")},
		{UpdateDelete, "/site/people/person[3]", "", ""},
		{UpdateReplace, "/site/people/person[2]", "", person("zz5", "Vera Replaced", 70, "99000.00")},
		{UpdateInsert, "/site/open_auctions", "", `<open_auction id="openzz"><initial>1.00</initial><bidder><date>01/01/2000</date><time>00:00:00</time><personref person="person0"/><increase>3.00</increase></bidder><current>4.00</current><itemref item="item0"/><seller person="person1"/><quantity>1</quantity><type>Regular</type></open_auction>`},
	}
}

// applyScript runs the mutation script against db and returns the final
// document version.
func applyScript(t *testing.T, db *Database) uint64 {
	t.Helper()
	var version uint64
	for i, op := range mutationScript() {
		res, err := db.Update(UpdateRequest{
			Doc: "auction.xml", Op: op.op, Target: op.target,
			Position: op.position, Fragment: op.fragment,
		})
		if err != nil {
			t.Fatalf("script op %d (%v %s): %v", i, op.op, op.target, err)
		}
		version = res.Version
	}
	return version
}

// documentXML serializes a loaded document from the store — the oracle
// input for rebuild-from-XML comparisons.
func documentXML(t *testing.T, db *Database, name string) string {
	t.Helper()
	st := dbStore(db)
	id, ok := st.Lookup(name)
	if !ok {
		t.Fatalf("document %q not loaded", name)
	}
	return st.Doc(id).XML(0)
}

// TestShardParityPostUpdate is the parity contract on a mutated store:
// after the scripted update sequence, every workload query on every
// algebra engine must produce byte-identical results from the updated
// database and from a snapshot written after the updates — and both must
// agree with a database freshly XML-loaded from the mutated document's
// serialization. That last comparison is the strongest oracle: the
// incrementally maintained columns, indexes and statistics must be
// query-indistinguishable from a from-scratch rebuild.
func TestShardParityPostUpdate(t *testing.T) {
	db := openXMark(t)
	if v := applyScript(t, db); v != uint64(len(mutationScript()))+1 {
		t.Fatalf("post-script version = %d, want %d", v, len(mutationScript())+1)
	}

	// The rebuild oracle: a fresh database loaded from the mutated XML.
	oracle := Open()
	if err := oracle.LoadXMLString("auction.xml", documentXML(t, db, "auction.xml")); err != nil {
		t.Fatalf("oracle load: %v", err)
	}

	// The snapshot carries the update generation and per-document versions.
	snap := snapshotReopen(t, db)
	if gen := snap.UpdateGeneration(); gen != uint64(len(mutationScript())) {
		t.Fatalf("snapshot update generation = %d, want %d", gen, len(mutationScript()))
	}
	if v, ok := snap.DocumentVersion("auction.xml"); !ok || v != uint64(len(mutationScript()))+1 {
		t.Fatalf("snapshot document version = %d/%v, want %d", v, ok, len(mutationScript())+1)
	}

	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				base, err := oracle.Query(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				want := base.XML()
				for _, cfg := range []struct {
					label string
					db    *Database
				}{
					{"updated", db},
					{"post-update snapshot", snap},
				} {
					res, err := cfg.db.Query(q.Text, WithEngine(e))
					if err != nil {
						t.Fatalf("%s: %v", cfg.label, err)
					}
					if got := res.XML(); got != want {
						t.Errorf("%s differs from fresh XML load of mutated document\nwant: %.200s\ngot:  %.200s",
							cfg.label, want, got)
					}
				}
			})
		}
	}
}

// TestUpdateSnapshotIsolation pins the MVCC reader contract at the API
// surface: a Result obtained before a commit keeps serializing pre-commit
// bytes after the commit (its store view is pinned to the version chain it
// started on), while queries started after the commit see the new version.
// WithShards is an ignored option; the shards=4 case checks that passing
// it changes nothing for as long as it exists.
func TestUpdateSnapshotIsolation(t *testing.T) {
	const doc = `<site><person id="p0"><name>Alice</name><age>30</age></person><person id="p1"><name>Bob</name><age>40</age></person></site>`
	const q = `FOR $p IN document("site.xml")//person WHERE $p/age > 25 RETURN $p/name`
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := Open(WithShards(shards))
			if err := db.LoadXMLString("site.xml", doc); err != nil {
				t.Fatal(err)
			}
			before, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			preXML := before.XML()
			if before.Len() != 2 {
				t.Fatalf("pre-update Len = %d, want 2", before.Len())
			}

			res, err := db.Update(UpdateRequest{
				Doc: "site.xml", Op: UpdateInsert, Target: "/site",
				Fragment: `<person id="p2"><name>Carol</name><age>50</age></person>`,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Version != 2 {
				t.Fatalf("post-update version = %d, want 2", res.Version)
			}

			// The pre-commit Result is pinned: same length, same bytes.
			if before.Len() != 2 || before.XML() != preXML {
				t.Errorf("pinned result changed after commit: len=%d", before.Len())
			}
			// While the old Result is alive, both versions are reachable.
			if live := db.VersionsLive(); live < 2 {
				t.Errorf("VersionsLive = %d with a pinned pre-commit result, want >= 2", live)
			}
			// A fresh query sees the new version.
			after, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if after.Len() != 3 {
				t.Errorf("post-update Len = %d, want 3", after.Len())
			}
			if before.XML() == after.XML() {
				t.Error("pre- and post-commit results serialize identically")
			}
		})
	}
}

// TestUpdateConcurrentReaders is the racy half of the isolation contract,
// run under -race in CI: readers hammer a document while a writer commits
// a stream of updates. Every read must observe a committed version — the
// inserted persons all fail the query predicate, so any read that sees a
// half-applied splice reports a wrong count — and a held Result must
// serialize identically on every call while commits land around it. The
// shards=4 case passes the ignored WithShards option, as
// TestUpdateSnapshotIsolation does.
func TestUpdateConcurrentReaders(t *testing.T) {
	const doc = `<site><person id="p0"><name>Alice</name><age>30</age></person><person id="p1"><name>Bob</name><age>40</age></person></site>`
	const q = `FOR $p IN document("site.xml")//person WHERE $p/age > 25 RETURN $p/name`
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := Open(WithShards(shards))
			if err := db.LoadXMLString("site.xml", doc); err != nil {
				t.Fatal(err)
			}
			pinned, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			pinnedXML := pinned.XML()

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						res, err := db.Query(q)
						if err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						if res.Len() != 2 {
							t.Errorf("reader saw %d results, want 2 (torn read?)", res.Len())
							return
						}
						if got := pinned.XML(); got != pinnedXML {
							t.Error("pinned result drifted during concurrent commits")
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					frag := fmt.Sprintf(`<person id="k%d"><name>Kid</name><age>10</age></person>`, i)
					if _, err := db.Update(UpdateRequest{
						Doc: "site.xml", Op: UpdateInsert, Target: "/site", Fragment: frag,
					}); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
			wg.Wait()

			if v, _ := db.DocumentVersion("site.xml"); v != 21 {
				t.Errorf("final version = %d, want 21", v)
			}
			final, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if final.Len() != 2 {
				t.Errorf("final Len = %d, want 2", final.Len())
			}
		})
	}
}
