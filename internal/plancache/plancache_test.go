package plancache

import (
	"context"
	"fmt"
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

func TestHitMiss(t *testing.T) {
	db := newDB(t)
	c := New(4)
	key := Key{Query: testQuery}

	p1, hit, err := c.Load(context.Background(), db, key)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first load reported a hit")
	}
	p2, hit, err := c.Load(context.Background(), db, key)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second load missed")
	}
	if p1 != p2 {
		t.Error("hit returned a different Prepared")
	}
	// The cached plan actually runs.
	res, err := db.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("got %d results, want 2", res.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

func TestKeyDistinguishesOptions(t *testing.T) {
	db := newDB(t)
	c := New(8)
	ctx := context.Background()
	keys := []Key{
		{Query: testQuery},
		{Query: testQuery, Engine: tlc.TLCOpt},
		{Query: testQuery, Limits: tlc.Limits{MaxResultCard: 10}},
	}
	for _, k := range keys {
		if _, hit, err := c.Load(ctx, db, k); err != nil || hit {
			t.Fatalf("key %+v: hit=%v err=%v, want fresh compile", k, hit, err)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Size != 3 {
		t.Errorf("stats = %+v, want 3 distinct entries", st)
	}
}

func TestEviction(t *testing.T) {
	db := newDB(t)
	c := New(2)
	ctx := context.Background()
	// The queries differ structurally (distinct step names), so containment
	// reuse cannot collapse them into one entry.
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

func TestConcurrentLoad(t *testing.T) {
	db := newDB(t)
	c := New(4)
	key := Key{Query: testQuery}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
			if res.Len() != 2 {
				t.Errorf("got %d results, want 2", res.Len())
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 16 || st.Size != 1 {
		t.Errorf("stats = %+v, want 16 lookups collapsing to one entry", st)
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
