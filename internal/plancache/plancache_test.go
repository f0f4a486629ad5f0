package plancache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc"
	"tlc/internal/faultinject"
)

const testXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>20</age></person>
  <person id="p2"><name>Carol</name><age>40</age></person>
</site>`

const testQuery = `FOR $p IN document("a.xml")//person WHERE $p/age > 25 RETURN $p/name`

func newDB(t *testing.T) *tlc.Database {
	t.Helper()
	db := tlc.Open()
	if err := db.LoadXMLString("a.xml", testXML); err != nil {
		t.Fatal(err)
	}
	return db
}

// hotVariants are the benchmark's read_hot stronger-literal variants: one
// comparison of six Figure 15 queries with its literal raised. Each is its
// own text, so each is compiled once and then served as a hit.
var hotVariants = []struct{ id, old, new string }{
	{"x3", `$p/age > 50`, `$p/age > 54`},
	{"x11", `@income > 90000`, `@income > 91499`},
	{"x12", `@income > 98000`, `@income > 98499`},
	{"x17", `$p/age > 20`, `$p/age > 24`},
	{"Q1", `$p/age > 25`, `$p/age > 29`},
	{"Q2", `$p/age > 25`, `$p/age > 29`},
}

// sorted renders what a plan answers as its sorted trees, so engines that
// emit the same trees in different orders compare equal.
func sorted(t *testing.T, db *tlc.Database, prep *tlc.Prepared) string {
	t.Helper()
	res, err := db.Run(prep)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(res.SortedXML(), "\n")
}

func TestHitMiss(t *testing.T) {
	type input struct {
		name string
		db   *tlc.Database
		key  Key
		want int // result trees; -1 checks only against a fresh compile
	}
	inputs := []input{{"person", newDB(t), Key{Query: testQuery}, 2}}
	xm := tlc.Open()
	if err := xm.LoadXMark("auction.xml", 0.02); err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{}
	for _, q := range tlc.Workload() {
		texts[q.ID] = q.Text
	}
	for _, v := range hotVariants {
		text := strings.Replace(texts[v.id], v.old, v.new, 1)
		if text == texts[v.id] {
			t.Fatalf("%s: %q not found", v.id, v.old)
		}
		for _, eng := range []tlc.Engine{tlc.TLC, tlc.TLCOpt, tlc.GTP, tlc.TAX} {
			inputs = append(inputs, input{fmt.Sprintf("%s/%s", v.id, eng), xm, Key{Query: text, Engine: eng}, -1})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			c := New(4)
			p1, hit, err := c.Load(context.Background(), in.db, in.key)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Error("first load reported a hit")
			}
			p2, hit, err := c.Load(context.Background(), in.db, in.key)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Error("second load missed")
			}
			if p1 != p2 {
				t.Error("hit returned a different Prepared")
			}
			// The cached plan runs and answers what a fresh compile answers.
			res, err := in.db.Run(p2)
			if err != nil {
				t.Fatal(err)
			}
			if in.want >= 0 && res.Len() != in.want {
				t.Errorf("got %d results, want %d", res.Len(), in.want)
			}
			fresh, err := in.db.Compile(in.key.Query, tlc.WithEngine(in.key.Engine))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(res.SortedXML(), "\n"), sorted(t, in.db, fresh); got != want {
				t.Errorf("cached plan answers\n%s\na fresh compile\n%s", got, want)
			}
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
				t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
			}
		})
	}
}

// TestHitAllocatesNothing: a hit is one map lookup under the lock.
func TestHitAllocatesNothing(t *testing.T) {
	db := newDB(t)
	c := New(4)
	ctx := context.Background()
	key := Key{Query: testQuery}
	if _, _, err := c.Load(ctx, db, key); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Load(ctx, db, key) }); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
}

// keyXML holds a person aged 26, so that age > 25 and age > 26 answer
// differently.
const keyXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>20</age></person>
  <person id="p2"><name>Carol</name><age>40</age></person>
  <person id="p3"><name>Dan</name><age>26</age></person>
</site>`

// TestKeyDistinguishesOptions: every input below is its own entry, and each
// cached plan answers what a fresh compile of its own key answers. The text
// keys byte for byte, so a literal-only and a whitespace-only difference are
// two entries too.
func TestKeyDistinguishesOptions(t *testing.T) {
	db := tlc.Open()
	if err := db.LoadXMLString("a.xml", keyXML); err != nil {
		t.Fatal(err)
	}
	c := New(8)
	ctx := context.Background()
	keys := []Key{
		{Query: testQuery},
		{Query: testQuery, Engine: tlc.TLCOpt},
		{Query: testQuery, Limits: tlc.Limits{MaxResultCard: 10}},
		{Query: strings.Replace(testQuery, "age > 25", "age > 26", 1)},
		{Query: strings.Replace(testQuery, " WHERE ", "\n\tWHERE  ", 1)},
	}
	for _, k := range keys {
		if _, hit, err := c.Load(ctx, db, k); err != nil || hit {
			t.Fatalf("key %+v: hit=%v err=%v, want fresh compile", k, hit, err)
		}
	}
	if st := c.Stats(); st.Misses != uint64(len(keys)) || st.Size != len(keys) {
		t.Errorf("stats = %+v, want %d distinct entries", st, len(keys))
	}
	answers := make([]string, len(keys))
	for i, k := range keys {
		p, hit, err := c.Load(ctx, db, k)
		if err != nil || !hit {
			t.Fatalf("key %+v: hit=%v err=%v, want a hit", k, hit, err)
		}
		fresh, err := db.Compile(k.Query, tlc.WithEngine(k.Engine), tlc.WithLimits(k.Limits))
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = sorted(t, db, p)
		if want := sorted(t, db, fresh); answers[i] != want {
			t.Errorf("key %+v answers\n%s\na fresh compile\n%s", k, answers[i], want)
		}
	}
	if answers[0] == answers[3] {
		t.Errorf("age > 25 and age > 26 answer alike:\n%s", answers[0])
	}
	if answers[0] != answers[4] {
		t.Errorf("a whitespace-only difference changed the answer:\n%s\n%s", answers[0], answers[4])
	}
}

func TestEviction(t *testing.T) {
	db := newDB(t)
	c := New(2)
	ctx := context.Background()
	// Three distinct texts, one entry each.
	q := func(i int) Key {
		return Key{Query: fmt.Sprintf(`FOR $p IN document("a.xml")//person WHERE $p/tag%d > 1 RETURN $p/name`, i)}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Load(ctx, db, q(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction at size 2", st)
	}
	// q(0) was evicted (LRU); q(2) is still cached.
	if _, hit, _ := c.Load(ctx, db, q(2)); !hit {
		t.Error("most recent entry was evicted")
	}
	if _, hit, _ := c.Load(ctx, db, q(0)); hit {
		t.Error("least recent entry survived eviction")
	}
}

func TestLRUOrderOnHit(t *testing.T) {
	db := newDB(t)
	c := New(2)
	ctx := context.Background()
	q := func(i int) Key {
		return Key{Query: fmt.Sprintf(`FOR $p IN document("a.xml")//person WHERE $p/tag%d > 1 RETURN $p/name`, i)}
	}
	c.Load(ctx, db, q(0))
	c.Load(ctx, db, q(1))
	c.Load(ctx, db, q(0)) // refresh q(0): q(1) becomes LRU
	c.Load(ctx, db, q(2)) // evicts q(1)
	if _, hit, _ := c.Load(ctx, db, q(0)); !hit {
		t.Error("refreshed entry was evicted")
	}
	if _, hit, _ := c.Load(ctx, db, q(1)); hit {
		t.Error("stale entry survived")
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	db := newDB(t)
	c := New(4)
	key := Key{Query: "THIS IS NOT XQUERY ((("}
	for i := 0; i < 2; i++ {
		if _, hit, err := c.Load(context.Background(), db, key); err == nil || hit {
			t.Fatalf("attempt %d: hit=%v err=%v, want compile error miss", i, hit, err)
		}
	}
	if st := c.Stats(); st.Size != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses and nothing cached", st)
	}
}

// TestConcurrentLoad loads one text and several literal variants of it
// from many goroutines at once; run under -race this checks the LRU and the
// shared Prepared for data races. Every lookup is counted, each text is one
// entry, and every plan answers for its own literal.
func TestConcurrentLoad(t *testing.T) {
	db := newDB(t)
	c := New(8)
	want := map[int]int{25: 2, 15: 3, 35: 1, 45: 0} // age > literal: result trees
	var lits []int
	for lit := range want {
		lits = append(lits, lit)
	}
	const goroutines, iters = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lit := 25 // half the lookups share one text
				if (g+i)%2 == 1 {
					lit = lits[(g+i/2)%len(lits)]
				}
				key := Key{Query: strings.Replace(testQuery, "age > 25", fmt.Sprintf("age > %d", lit), 1)}
				p, _, err := c.Load(context.Background(), db, key)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := db.Run(p)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != want[lit] {
					t.Errorf("age > %d: got %d results, want %d", lit, res.Len(), want[lit])
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*iters || st.Size != len(want) {
		t.Errorf("stats = %+v, want %d lookups collapsing to %d entries", st, goroutines*iters, len(want))
	}
}

// TestPlansNeverGoStale is the cache's contract across every event that
// changes the documents: a compiled plan depends on its key alone, so after
// each event every cached key still hits, and what the cached plan answers
// is what a fresh compile of the same text answers now.
func TestPlansNeverGoStale(t *testing.T) {
	keys := map[string]Key{
		"a":      {Query: testQuery},
		"b":      {Query: `FOR $x IN document("b.xml")//x RETURN $x`},
		"absent": {Query: `FOR $x IN document("c.xml")//x RETURN $x`},
	}
	const cXML = `<r><x>1</x><x>2</x><x>3</x></r>`
	cases := []struct {
		name  string
		event func(t *testing.T, db *tlc.Database)
	}{
		{"load of an unrelated document", func(t *testing.T, db *tlc.Database) {
			if err := db.LoadXMLString("d.xml", cXML); err != nil {
				t.Fatal(err)
			}
		}},
		{"XML load of a document named while absent", func(t *testing.T, db *tlc.Database) {
			if err := db.LoadXMLString("c.xml", cXML); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot load of a document named while absent", func(t *testing.T, db *tlc.Database) {
			src := tlc.Open()
			if err := src.LoadXMLString("c.xml", cXML); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := src.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			if err := db.LoadSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
		}},
		{"update", func(t *testing.T, db *tlc.Database) {
			if _, err := db.Update(tlc.UpdateRequest{
				Doc: "a.xml", Op: tlc.UpdateInsert, Target: "/site",
				Fragment: `<person id="p3"><name>Dave</name><age>50</age></person>`,
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"re-load of the same name", func(t *testing.T, db *tlc.Database) {
			if err := db.LoadXMLString("a.xml", `<site/>`); err == nil {
				t.Fatal("a second load of a.xml was accepted")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := tlc.Open()
			if err := db.LoadXMLString("a.xml", testXML); err != nil {
				t.Fatal(err)
			}
			if err := db.LoadXMLString("b.xml", `<r><x>1</x><x>2</x></r>`); err != nil {
				t.Fatal(err)
			}
			c := New(4)
			ctx := context.Background()
			for name, k := range keys {
				if _, hit, err := c.Load(ctx, db, k); err != nil || hit {
					t.Fatalf("warm-up %s: hit=%v err=%v, want a compile", name, hit, err)
				}
			}

			tc.event(t, db)

			for name, k := range keys {
				p, hit, err := c.Load(ctx, db, k)
				if err != nil {
					t.Fatal(err)
				}
				if !hit {
					t.Errorf("plan %q missed", name)
				}
				if got, want := answer(db.Run(p)), answer(db.Query(k.Query)); got != want {
					t.Errorf("plan %q answers %q, a fresh compile %q", name, got, want)
				}
			}
			if st := c.Stats(); st.Misses != uint64(len(keys)) || st.Size != len(keys) {
				t.Errorf("stats = %+v, want only the %d warm-up compiles", st, len(keys))
			}
		})
	}
}

// answer renders what a run returned, its error included: a plan naming a
// document that is not loaded fails to run, cached or not.
func answer(res *tlc.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return res.XML()
}

// TestCommitRacingCompile: a commit that lands while a plan compiles does
// not keep the plan out of the cache — compiling reads no document — and
// the cached plan answers from the committed version. The injected stall
// sits just before the compile.
func TestCommitRacingCompile(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db := newDB(t)
	c := New(4)
	key := Key{Query: testQuery}
	if err := faultinject.Enable(faultinject.PointPlanCacheFill + "=slow,delay=300ms,times=1"); err != nil {
		t.Fatal(err)
	}
	type loaded struct {
		prep *tlc.Prepared
		hit  bool
		err  error
	}
	done := make(chan loaded, 1)
	go func() {
		p, hit, err := c.Load(context.Background(), db, key)
		done <- loaded{p, hit, err}
	}()
	for faultinject.Stats()[faultinject.PointPlanCacheFill].Fired == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := db.Update(tlc.UpdateRequest{Doc: "a.xml", Op: tlc.UpdateDelete, Target: "/site/person[3]"}); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.err != nil || got.hit || got.prep == nil {
		t.Fatalf("raced load: prep=%v hit=%v err=%v, want a compile", got.prep, got.hit, got.err)
	}
	p, hit, err := c.Load(context.Background(), db, key)
	if err != nil || !hit || p != got.prep {
		t.Fatalf("after the race: hit=%v err=%v, want the raced plan cached", hit, err)
	}
	res, err := db.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("cached plan returned %d trees after Carol was deleted, want 1", res.Len())
	}
}

// The three TestContainment* tests keep the names they had when the cache
// served a stricter text from a cached weaker plan. The cache no longer
// does; they now pin that a literal variant is never answered by another
// text's plan.

// parityXML holds enough value spread that weak and strict thresholds
// select different, non-empty result sets.
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

// TestContainmentParity seeds the cache with a weak-threshold query and
// then loads stricter variants: each compiles once as its own entry, is a
// hit on its second load, and answers what a fresh compile of its own text
// answers — per engine. The shards=4 cases pass tlc.WithShards(4), which
// Open ignores: they check that the option changes nothing.
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
				ctx := context.Background()
				wp, hit, err := c.Load(ctx, db, Key{Query: weak, Engine: eng})
				if err != nil {
					t.Fatal(err)
				} else if hit {
					t.Fatal("seed load reported a hit")
				}
				weakAnswer := sorted(t, db, wp)
				for i, q := range stricter {
					key := Key{Query: q, Engine: eng}
					p1, hit, err := c.Load(ctx, db, key)
					if err != nil {
						t.Fatal(err)
					}
					if hit {
						t.Fatalf("%q: first load hit another text's plan", q)
					}
					p2, hit, err := c.Load(ctx, db, key)
					if err != nil {
						t.Fatal(err)
					}
					if !hit || p1 != p2 {
						t.Fatalf("%q: second load hit=%v, same plan=%v", q, hit, p1 == p2)
					}
					fresh, err := db.Compile(q, tlc.WithEngine(eng))
					if err != nil {
						t.Fatal(err)
					}
					got, want := sorted(t, db, p2), sorted(t, db, fresh)
					if got != want {
						t.Errorf("%q: cached plan answers\n%s\na fresh compile\n%s", q, got, want)
					}
					if got == "" || got == weakAnswer {
						t.Errorf("%q: answer %q tells the variant from the seed apart poorly", q, got)
					}
					if st := c.Stats(); st.Misses != uint64(i+2) || st.Hits != uint64(i+1) || st.Size != i+2 {
						t.Errorf("%q: stats = %+v, want one entry per text", q, st)
					}
				}
			})
		}
	}
}

// TestContainmentWeakerMisses: a query weaker than everything cached
// compiles, and its plan answers for its own, wider threshold.
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
	if got := sorted(t, db, prep); !strings.Contains(got, "Bob") {
		t.Errorf("weak query results missing Bob: %s", got)
	}
}

// TestContainmentConcurrent hammers one cache from many goroutines with a
// mix of repeated and distinct thresholds; run under -race this checks the
// LRU and the shared Prepared for data races. The counters add up to the
// operation count and each distinct text is one entry.
func TestContainmentConcurrent(t *testing.T) {
	db := newParityDB(t, 4)
	c := New(64)
	const seed = `FOR $p IN document("a.xml")//person WHERE $p/age > %d RETURN $p/name`
	if _, _, err := c.Load(context.Background(), db, Key{Query: fmt.Sprintf(seed, 18)}); err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 25
	var mu sync.Mutex
	distinct := map[int]bool{18: true}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				threshold := 19 + (g*7+i*3)%30
				mu.Lock()
				distinct[threshold] = true
				mu.Unlock()
				prep, _, err := c.Load(context.Background(), db, Key{Query: fmt.Sprintf(seed, threshold)})
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
	if st.Size != len(distinct) || st.Misses < uint64(len(distinct)) {
		t.Errorf("stats = %+v, want %d entries, one per distinct text", st, len(distinct))
	}
}
