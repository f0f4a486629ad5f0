package tlc

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tlc/internal/xmark"
)

// snapshotReopen writes db to a fresh snapshot directory and opens it as
// a new database — the mmap-backed store every parity test below must
// agree with.
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

// TestShardParity is the snapshot contract at query level: a
// snapshot-opened (mmap-backed) database is indistinguishable from the
// XML-loaded one it was written from. Every workload query on every
// algebra engine must produce byte-identical results, including document
// order, from both.
func TestShardParity(t *testing.T) {
	db := openXMark(t)
	snap := snapshotReopen(t, db)
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				base, err := db.Query(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				res, err := snap.Query(q.Text, WithEngine(e))
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				if want, got := base.XML(), res.XML(); got != want {
					t.Errorf("snapshot-opened result differs from XML-loaded\nwant: %.200s\ngot:  %.200s", want, got)
				}
			})
		}
	}
}

// TestXMarkXMLLoadsLikeGenerated holds the XMark text that cmd/xmarkgen
// and the benchmark write (xmltree.Document.WriteXML) to the document the
// generator builds in process: both load to the same columns and indexes
// (store.Doc.Fingerprint).
func TestXMarkXMLLoadsLikeGenerated(t *testing.T) {
	doc := xmark.Generate("auction.xml", parityFactor)
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf, doc.Root()); err != nil {
		t.Fatal(err)
	}
	fromXML := Open()
	if err := fromXML.LoadXML("auction.xml", &buf); err != nil {
		t.Fatal(err)
	}
	fingerprint := func(db *Database) string {
		st := dbStore(db)
		id, _ := st.Lookup("auction.xml")
		return st.Doc(id).Fingerprint()
	}
	if fingerprint(fromXML) != fingerprint(openXMark(t)) {
		t.Error("XMark XML text loads to a different document than the generated one")
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

// TestShardMergeProperty is a random multi-document property test: many
// small documents with random content are loaded into one database, and
// every query — per-document scans and cross-document value joins between
// random document pairs (the equality join sorts one run of right-side
// values keyed across both documents) — must return the same trees under
// TLC, GTP and TAX as under the navigational interpreter, which shares no
// join code with them.
func TestShardMergeProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := Open()
		numDocs := 4 + rng.Intn(5) // 4..8
		names := make([]string, numDocs)
		for i := range names {
			names[i] = fmt.Sprintf("d%d_%d.xml", trial, rng.Intn(1<<20))
			if err := db.LoadXMLString(names[i], randomDoc(rng, "site")); err != nil {
				t.Fatal(err)
			}
		}

		var queries []string
		for _, name := range names {
			queries = append(queries,
				fmt.Sprintf(`FOR $p IN document(%q)//person WHERE $p/age > 30 RETURN $p/name`, name))
		}
		for i := 0; i < 3; i++ {
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			queries = append(queries, fmt.Sprintf(
				`FOR $a IN document(%q)//person FOR $b IN document(%q)//person WHERE $a/age = $b/age RETURN $a/name`, a, b))
		}

		for qi, q := range queries {
			nav, err := db.Query(q, WithEngine(Nav))
			if err != nil {
				t.Fatalf("trial %d query %d: NAV: %v", trial, qi, err)
			}
			want := strings.Join(nav.SortedXML(), "|")
			for _, e := range []Engine{TLC, GTP, TAX} {
				res, err := db.Query(q, WithEngine(e))
				if err != nil {
					t.Fatalf("trial %d query %d: %v: %v", trial, qi, e, err)
				}
				if got := strings.Join(res.SortedXML(), "|"); got != want {
					t.Errorf("trial %d query %d: %v differs from NAV\nwant: %.200s\ngot:  %.200s", trial, qi, e, want, got)
				}
			}
		}
	}
}
