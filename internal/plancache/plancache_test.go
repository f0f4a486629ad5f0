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
		{Query: testQuery, PlannerOff: true},
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

// TestStaleness is the cache's one staleness rule, event by event: a plan
// is recompiled exactly when a document it names moved past the version it
// had at compile time, 0 being "not loaded". Everything lives on one shard,
// so nothing here can be told apart by shard.
func TestStaleness(t *testing.T) {
	keys := map[string]Key{
		"a":      {Query: testQuery},
		"b":      {Query: `FOR $x IN document("b.xml")//x RETURN $x`},
		"absent": {Query: `FOR $x IN document("c.xml")//x RETURN $x`},
	}
	const cXML = `<r><x>1</x><x>2</x><x>3</x></r>`
	cases := []struct {
		name  string
		event func(t *testing.T, db *tlc.Database)
		stale string // the one key that must recompile; "" for none
	}{
		{"load of an unrelated document on the same shard", func(t *testing.T, db *tlc.Database) {
			if err := db.LoadXMLString("d.xml", cXML); err != nil {
				t.Fatal(err)
			}
		}, ""},
		{"XML load of a document named while absent", func(t *testing.T, db *tlc.Database) {
			if err := db.LoadXMLString("c.xml", cXML); err != nil {
				t.Fatal(err)
			}
		}, "absent"},
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
		}, "absent"},
		{"update", func(t *testing.T, db *tlc.Database) {
			if _, err := db.Update(tlc.UpdateRequest{
				Doc: "a.xml", Op: tlc.UpdateInsert, Target: "/site",
				Fragment: `<person id="p3"><name>Dave</name><age>50</age></person>`,
			}); err != nil {
				t.Fatal(err)
			}
		}, "a"},
	}
	// What each query answers once its document is in its final state.
	wantLen := map[string]int{"a": 3, "absent": 3}
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
				if hit == (name == tc.stale) {
					t.Errorf("plan %q: hit=%v, want %v", name, hit, name != tc.stale)
				}
				if name != tc.stale {
					continue
				}
				// The recompiled plan sees the moved document and is cached
				// at its new version.
				res, err := db.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != wantLen[name] {
					t.Errorf("recompiled plan %q returned %d trees, want %d", name, res.Len(), wantLen[name])
				}
				if _, hit, _ := c.Load(ctx, db, k); !hit {
					t.Errorf("recompiled plan %q was not cached", name)
				}
			}
			want := uint64(0)
			if tc.stale != "" {
				want = 1
			}
			if st := c.Stats(); st.Invalidations != want {
				t.Errorf("invalidations = %d, want %d", st.Invalidations, want)
			}
		})
	}
}

// TestCommitRacingCompile: a commit that lands between the version record
// and the end of the compile leaves the plan uncached — it is returned, its
// answer is right either way, but the cache cannot say which version costed
// it. The injected stall sits after the record is taken.
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
	if _, err := db.Update(tlc.UpdateRequest{Doc: "a.xml", Op: tlc.UpdateDelete, Target: "/site/person[2]"}); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.err != nil || got.hit || got.prep == nil {
		t.Fatalf("raced load: prep=%v hit=%v err=%v, want an uncached plan", got.prep, got.hit, got.err)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("raced plan entered the cache: %+v", st)
	}
	// Undisturbed, the next lookup compiles again and is cached.
	if _, hit, err := c.Load(context.Background(), db, key); err != nil || hit {
		t.Fatalf("after the race: hit=%v err=%v, want a compile", hit, err)
	}
	if _, hit, _ := c.Load(context.Background(), db, key); !hit {
		t.Error("plan compiled after the race was not cached")
	}
}
