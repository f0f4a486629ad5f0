package tlc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// openXMarkSharded is openXMark with an explicit shard count.
func openXMarkSharded(t *testing.T, shards int) *Database {
	t.Helper()
	db := Open(WithShards(shards))
	if err := db.LoadXMark("auction.xml", parityFactor); err != nil {
		t.Fatal(err)
	}
	return db
}

// snapshotReopen writes db to a fresh snapshot directory and opens it as
// a new database — the mmap-backed store every parity configuration below
// must agree with.
func snapshotReopen(t *testing.T, db *Database) *Database {
	t.Helper()
	dir := t.TempDir()
	if _, err := db.Snapshot(dir); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	snap, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	t.Cleanup(func() { snap.Close() })
	return snap
}

// TestShardParity asserts the sharded store's core contract: shard count
// partitions storage and locks, never semantics — and the snapshot
// contract on top of it: a snapshot-opened (mmap-backed) database is
// indistinguishable from the XML-loaded one it was written from. Every
// workload query on every algebra engine must produce byte-identical
// results — including document order — at shards=1 and shards=4, serially
// and in parallel, XML-loaded and snapshot-opened.
func TestShardParity(t *testing.T) {
	db1 := openXMarkSharded(t, 1)
	db4 := openXMarkSharded(t, 4)
	if n := db4.NumShards(); n != 4 {
		t.Fatalf("NumShards = %d, want 4", n)
	}
	snap1 := snapshotReopen(t, db1)
	snap4 := snapshotReopen(t, db4)
	if n := snap4.NumShards(); n != 4 {
		t.Fatalf("snapshot NumShards = %d, want 4", n)
	}
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				base, err := db1.Query(q.Text, WithEngine(e), WithParallelism(1))
				if err != nil {
					t.Fatal(err)
				}
				want := base.XML()
				for _, cfg := range []struct {
					label string
					db    *Database
					par   int
				}{
					{"xml", db4, 1},    // shards=4, serial
					{"xml", db4, 4},    // shards=4, parallel
					{"xml", db1, 4},    // shards=1, parallel (control)
					{"snap", snap1, 1}, // snapshot, shards=1, serial
					{"snap", snap4, 1}, // snapshot, shards=4, serial
					{"snap", snap4, 4}, // snapshot, shards=4, parallel
				} {
					res, err := cfg.db.Query(q.Text, WithEngine(e), WithParallelism(cfg.par))
					if err != nil {
						t.Fatalf("%s shards=%d parallelism=%d: %v", cfg.label, cfg.db.NumShards(), cfg.par, err)
					}
					if got := res.XML(); got != want {
						t.Errorf("%s shards=%d parallelism=%d differs from shards=1 serial\nwant: %.200s\ngot:  %.200s",
							cfg.label, cfg.db.NumShards(), cfg.par, want, got)
					}
				}
			})
		}
	}
}

// randomDoc builds a small person-list document with rng-driven content.
func randomDoc(rng *rand.Rand, tag string) string {
	n := 1 + rng.Intn(5)
	s := "<" + tag + ">"
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("<person id=\"p%d\"><name>n%d</name><age>%d</age></person>", i, rng.Intn(50), 18+rng.Intn(40))
	}
	return s + "</" + tag + ">"
}

// TestShardMergeProperty is the document-order merge property test: many
// documents with randomized names (and therefore randomized shard
// assignments — routing is a pure name hash) are loaded in one order into
// a 1-shard and a k-shard database, and every query — per-document scans
// and cross-document value joins, serial and parallel — must come back
// byte-identical, in the same order, from both. Randomizing names across
// trials randomizes which shard each document lands on, so the merge
// invariant is exercised over many shard layouts.
func TestShardMergeProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		shards := 2 + rng.Intn(7) // 2..8
		db1 := Open(WithShards(1))
		dbk := Open(WithShards(shards))

		numDocs := 4 + rng.Intn(5) // 4..8
		names := make([]string, numDocs)
		for i := range names {
			names[i] = fmt.Sprintf("d%d_%d.xml", trial, rng.Intn(1<<20))
			doc := randomDoc(rng, "site")
			if err := db1.LoadXMLString(names[i], doc); err != nil {
				t.Fatal(err)
			}
			if err := dbk.LoadXMLString(names[i], doc); err != nil {
				t.Fatal(err)
			}
		}

		// The shard document lists must partition the loaded names.
		var spread []string
		for i := 0; i < dbk.NumShards(); i++ {
			spread = append(spread, dbk.ShardDocuments(i)...)
			for _, name := range dbk.ShardDocuments(i) {
				if got := dbk.ShardOfDocument(name); got != i {
					t.Fatalf("trial %d: %q listed on shard %d but routes to %d", trial, name, i, got)
				}
			}
		}
		sort.Strings(spread)
		loaded := append([]string(nil), names...)
		sort.Strings(loaded)
		if fmt.Sprint(spread) != fmt.Sprint(loaded) {
			t.Fatalf("trial %d: shard documents %v do not partition %v", trial, spread, loaded)
		}

		var queries []string
		for _, name := range names {
			queries = append(queries,
				fmt.Sprintf(`FOR $p IN document(%q)//person WHERE $p/age > 30 RETURN $p/name`, name))
		}
		// Cross-document value joins between random document pairs: their
		// equality matcher merges shard-local sorted runs.
		for i := 0; i < 3; i++ {
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			queries = append(queries, fmt.Sprintf(
				`FOR $a IN document(%q)//person FOR $b IN document(%q)//person WHERE $a/age = $b/age RETURN $a/name`, a, b))
		}

		for qi, q := range queries {
			base, err := db1.Query(q, WithParallelism(1))
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			want := base.XML()
			for _, par := range []int{1, 4} {
				res, err := dbk.Query(q, WithParallelism(par))
				if err != nil {
					t.Fatalf("trial %d query %d shards=%d par=%d: %v", trial, qi, shards, par, err)
				}
				if got := res.XML(); got != want {
					t.Errorf("trial %d query %d: shards=%d par=%d differs from 1-shard serial\nwant: %.200s\ngot:  %.200s",
						trial, qi, shards, par, want, got)
				}
			}
		}
	}
}

// TestShardAccessors pins the Database shard surface: routing is stable
// and in range, and Prepared.Documents reports the documents a query names
// for both plan-walking and AST-walking engines.
func TestShardAccessors(t *testing.T) {
	db := Open(WithShards(4))
	if err := db.LoadXMLString("a.xml", `<site><person><name>X</name><age>30</age></person></site>`); err != nil {
		t.Fatal(err)
	}
	sh := db.ShardOfDocument("a.xml")
	if sh < 0 || sh >= 4 {
		t.Fatalf("ShardOfDocument out of range: %d", sh)
	}
	if docs := db.ShardDocuments(sh); len(docs) != 1 || docs[0] != "a.xml" {
		t.Errorf("ShardDocuments(%d) = %v, want [a.xml]", sh, docs)
	}

	q := `FOR $p IN document("a.xml")//person RETURN $p/name`
	for _, e := range []Engine{TLC, TLCOpt, GTP, TAX, Nav} {
		prep, err := db.Compile(q, WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		docs := prep.Documents()
		if len(docs) != 1 || docs[0] != "a.xml" {
			t.Errorf("%v: Documents() = %v, want [a.xml]", e, docs)
		}
	}
}
