package plancache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tlc"
)

// parityXML holds enough value spread that weak and strict thresholds
// select different, non-empty result sets — a residual filter that does
// nothing would be caught.
const parityXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>20</age></person>
  <person id="p2"><name>Carol</name><age>40</age></person>
  <person id="p3"><name>Dave</name><age>55</age></person>
  <person id="p4"><name>Eve</name><age>35</age></person>
  <person id="p5"><name>Frank</name></person>
</site>`

func newParityDB(t *testing.T, shards int) *tlc.Database {
	t.Helper()
	db := tlc.Open(tlc.WithShards(shards))
	if err := db.LoadXMLString("a.xml", parityXML); err != nil {
		t.Fatal(err)
	}
	return db
}

// sortedResults evaluates prep and returns its result trees serialized and
// sorted — the byte-identity representative.
func sortedResults(t *testing.T, db *tlc.Database, prep *tlc.Prepared) string {
	t.Helper()
	res, err := db.Run(prep)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(res.SortedXML(), "\n")
}

// TestContainmentParity seeds the cache with a weak-threshold query and
// then loads stricter variants: each must be served by containment (no
// compile) and produce results byte-identical to a fresh compilation of
// the same text — per containment-capable engine. The shards=4 cases pass
// tlc.WithShards(4), which Open ignores: they keep checking that the
// option changes nothing for as long as it exists.
func TestContainmentParity(t *testing.T) {
	const weak = `FOR $p IN document("a.xml")//person WHERE $p/age > 18 RETURN $p/name`
	stricter := []string{
		`FOR $p IN document("a.xml")//person WHERE $p/age > 32 RETURN $p/name`,
		`FOR $p IN document("a.xml")//person WHERE $p/age > 50 RETURN $p/name`,
		`FOR $p IN document("a.xml")//person WHERE $p/age >= 40 RETURN $p/name`,
		`FOR $p IN document("a.xml")//person WHERE $p/age = 30 RETURN $p/name`,
	}
	for _, shards := range []int{1, 4} {
		for _, eng := range []tlc.Engine{tlc.TLC, tlc.GTP, tlc.TAX} {
			t.Run(fmt.Sprintf("%s/shards=%d", eng, shards), func(t *testing.T) {
				db := newParityDB(t, shards)
				c := New(16)
				if _, hit, err := c.Load(context.Background(), db, Key{Query: weak, Engine: eng}); err != nil {
					t.Fatal(err)
				} else if hit {
					t.Fatal("seed load reported a hit")
				}
				for _, q := range stricter {
					before := c.Stats()
					prep, hit, err := c.Load(context.Background(), db, Key{Query: q, Engine: eng})
					if err != nil {
						t.Fatal(err)
					}
					after := c.Stats()
					if !hit || after.HitsContainment != before.HitsContainment+1 {
						t.Fatalf("%q: want a containment hit, got hit=%v stats %+v", q, hit, after)
					}
					if after.Misses != before.Misses {
						t.Fatalf("%q: containment hit still compiled (misses %d -> %d)", q, before.Misses, after.Misses)
					}
					fresh, err := db.Compile(q, tlc.WithEngine(eng))
					if err != nil {
						t.Fatal(err)
					}
					got, want := sortedResults(t, db, prep), sortedResults(t, db, fresh)
					if got != want {
						t.Errorf("%q: containment-served results differ from fresh compile.\ncontainment:\n%s\nfresh:\n%s", q, got, want)
					}
					if got == "" {
						t.Errorf("%q: empty result set exercises nothing", q)
					}
				}
			})
		}
	}
}

// TestContainmentWeakerMisses checks the direction of the lattice: a query
// weaker than everything cached must compile, not be served by containment
// (the cached match set would be too small).
func TestContainmentWeakerMisses(t *testing.T) {
	db := newParityDB(t, 1)
	c := New(16)
	strict := `FOR $p IN document("a.xml")//person WHERE $p/age > 50 RETURN $p/name`
	weak := `FOR $p IN document("a.xml")//person WHERE $p/age > 18 RETURN $p/name`
	if _, _, err := c.Load(context.Background(), db, Key{Query: strict}); err != nil {
		t.Fatal(err)
	}
	prep, hit, err := c.Load(context.Background(), db, Key{Query: weak})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a weaker query must not be served from a stricter cached plan")
	}
	if got := sortedResults(t, db, prep); !strings.Contains(got, "Bob") {
		t.Errorf("weak query results missing Bob: %s", got)
	}
}

// TestContainmentAlphaEquivalence: queries differing only in variable
// naming and whitespace share one cache entry via the canonical exact key.
func TestContainmentAlphaEquivalence(t *testing.T) {
	db := newParityDB(t, 1)
	c := New(16)
	a := `FOR $p IN document("a.xml")//person WHERE $p/age > 25 RETURN $p/name`
	b := `FOR  $q  IN document("a.xml")//person
		WHERE $q/age > 25
		RETURN $q/name`
	if _, _, err := c.Load(context.Background(), db, Key{Query: a}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	_, hit, err := c.Load(context.Background(), db, Key{Query: b})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if !hit || after.HitsExact != before.HitsExact+1 {
		t.Errorf("alpha-equivalent query missed the exact index: hit=%v stats %+v", hit, after)
	}
	if after.Size != 1 {
		t.Errorf("alpha-equivalent queries created %d entries, want 1", after.Size)
	}
}

// TestContainmentNavExcluded: the navigational engine evaluates the AST
// directly (no plan to graft a residual onto), so its entries never serve
// containment.
func TestContainmentNavExcluded(t *testing.T) {
	db := newParityDB(t, 1)
	c := New(16)
	weak := `FOR $p IN document("a.xml")//person WHERE $p/age > 18 RETURN $p/name`
	strict := `FOR $p IN document("a.xml")//person WHERE $p/age > 50 RETURN $p/name`
	if _, _, err := c.Load(context.Background(), db, Key{Query: weak, Engine: tlc.Nav}); err != nil {
		t.Fatal(err)
	}
	_, hit, err := c.Load(context.Background(), db, Key{Query: strict, Engine: tlc.Nav})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("Nav entries must not serve containment")
	}
}

// TestContainmentConcurrent hammers one cache from many goroutines with a
// mix of exact repeats and stricter variants; run under -race this checks
// the byStruct index and the shared Prepared reuse for data races, and the
// counters must add up to the operation count.
func TestContainmentConcurrent(t *testing.T) {
	db := newParityDB(t, 4)
	c := New(16)
	if _, _, err := c.Load(context.Background(), db,
		Key{Query: `FOR $p IN document("a.xml")//person WHERE $p/age > 18 RETURN $p/name`}); err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				threshold := 19 + (g*7+i*3)%30
				q := fmt.Sprintf(`FOR $p IN document("a.xml")//person WHERE $p/age > %d RETURN $p/name`, threshold)
				prep, _, err := c.Load(context.Background(), db, Key{Query: q})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Run(prep); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*iters+1 {
		t.Errorf("hits %d + misses %d != %d ops", st.Hits, st.Misses, goroutines*iters+1)
	}
	if st.HitsContainment == 0 {
		t.Error("concurrent mix produced no containment hits")
	}
	if st.HitsExact+st.HitsContainment != st.Hits {
		t.Errorf("exact %d + containment %d != total hits %d", st.HitsExact, st.HitsContainment, st.Hits)
	}
}
