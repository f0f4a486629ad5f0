package tlc

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"tlc/internal/faultinject"
	"tlc/internal/governor"
	"tlc/internal/seq"
)

// shardBudgetFixture loads the same four person documents — one on each
// shard of the 4-shard database — into a 1-shard and a 4-shard database,
// and returns a cross-document join query over them whose matching
// allocates about the same number of witness nodes on every shard but
// returns no rows (the ages are disjoint), so arena usage comes from
// matching, not result construction.
func shardBudgetFixture(t *testing.T) (db1, db4 *Database, query string) {
	t.Helper()
	db1 = Open(WithShards(1))
	db4 = Open(WithShards(4))

	names := make([]string, 4) // names[i] routes to shard i of db4
	for i, found := 0, 0; found < len(names); i++ {
		if i > 1<<16 {
			t.Fatal("no name found for every shard")
		}
		name := fmt.Sprintf("budget%d.xml", i)
		if sh := db4.ShardOfDocument(name); names[sh] == "" {
			names[sh] = name
			found++
		}
	}
	for i, name := range names {
		var b strings.Builder
		b.WriteString("<site>")
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&b, "<person id=\"p%d\"><name>n%d</name><age>%d</age></person>", j, j, 1000*i+j)
		}
		b.WriteString("</site>")
		for _, db := range []*Database{db1, db4} {
			if err := db.LoadXMLString(name, b.String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	query = fmt.Sprintf(`FOR $a IN document(%q)//person
	                     FOR $b IN document(%q)//person
	                     FOR $c IN document(%q)//person
	                     FOR $d IN document(%q)//person
	                     WHERE $a/age = $b/age AND $b/age = $c/age AND $c/age = $d/age
	                     RETURN $a/name`, names[0], names[1], names[2], names[3])
	return db1, db4, query
}

// TestShardSharedBudget checks the governor budget is query-wide, not
// per-shard: every per-shard arena charges the same governor, so a node
// budget of half what a run allocates must trip at every shard count,
// serial and parallel. An implementation that gave each shard worker its
// own budget would let the 4-shard parallel run — a quarter of the
// allocation on each shard — finish inside it.
func TestShardSharedBudget(t *testing.T) {
	// What a run allocates is not repeatable and differs by configuration:
	// the governor charges per slab, partially filled slabs live in a
	// sync.Pool, and a pool miss charges a whole fresh slab. Misses come
	// from workers allocating at once (a parallel run takes several times a
	// serial run's slabs), from GC clearing the pool — pinned off below —
	// and, under the race detector, from sync.Pool dropping a random
	// quarter of Puts, which multiplies the slab count by some fifty and
	// lets it wander by about a tenth from run to run. So each
	// configuration is measured as itself, by the slabs it allocates
	// (which a budgeting bug cannot distort), and the budget is half of
	// that: five or more standard deviations below any shared-budget run,
	// twice what one shard of four allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	db1, db4, query := shardBudgetFixture(t)
	const generous = 1 << 30

	// The governor's charge for one slab, read off a budget no slab fits in.
	var be *BudgetError
	if _, err := db1.Query(query, WithLimits(Limits{MaxArenaNodes: 1})); !errors.As(err, &be) {
		t.Fatalf("one-node budget: err = %v, want *BudgetError", err)
	}
	slabNodes := be.Observed

	for _, cfg := range []struct {
		db  *Database
		par int
	}{{db1, 1}, {db1, 4}, {db4, 1}, {db4, 4}} {
		_, before, _ := seq.ArenaTotals()
		if _, err := cfg.db.Query(query, WithLimits(Limits{MaxArenaNodes: generous}), WithParallelism(cfg.par)); err != nil {
			// Governance is shared, not stricter, at higher shard counts.
			t.Fatalf("shards=%d parallelism=%d: generous budget: %v", cfg.db.NumShards(), cfg.par, err)
		}
		_, after, _ := seq.ArenaTotals()
		budget := (after - before) * slabNodes / 2

		_, err := cfg.db.Query(query, WithLimits(Limits{MaxArenaNodes: budget}), WithParallelism(cfg.par))
		if !errors.As(err, &be) {
			t.Errorf("shards=%d parallelism=%d: err = %v under half the %d slabs the run allocates, want *BudgetError",
				cfg.db.NumShards(), cfg.par, err, after-before)
			continue
		}
		if be.Resource != governor.ResourceNodes || be.Limit != budget {
			t.Errorf("shards=%d parallelism=%d: tripped %s at limit %d, want %s at %d",
				cfg.db.NumShards(), cfg.par, be.Resource, be.Limit, governor.ResourceNodes, budget)
		}
	}
}

// TestShardBudgetChaosAbortsSiblings is the chaos half: with a slow-matcher
// fault keeping all shard workers in flight when the budget trips, the
// over-budget shard must abort its siblings — the query returns one typed
// *BudgetError, promptly and identically on every run, and a concurrent
// in-budget query on the same sharded store is untouched.
func TestShardBudgetChaosAbortsSiblings(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, db4, query := shardBudgetFixture(t)

	inBudget, err := db4.Compile(query, WithLimits(Limits{MaxArenaNodes: 1 << 30}), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Enable(faultinject.PointMatcher + "=slow,delay=20ms"); err != nil {
		t.Fatal(err)
	}
	var first *BudgetError
	for run := 0; run < 4; run++ {
		done := make(chan error, 1)
		go func() {
			res, err := db4.Run(inBudget)
			if err == nil && res.Len() != 0 {
				err = fmt.Errorf("disjoint-age join returned %d rows", res.Len())
			}
			done <- err
		}()

		start := time.Now()
		_, err := db4.Query(query, WithLimits(Limits{MaxArenaNodes: 64}), WithParallelism(4))
		elapsed := time.Since(start)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("run %d: err = %v, want *BudgetError", run, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("run %d: abort took %v, want prompt", run, elapsed)
		}
		if first == nil {
			first = be
		} else if be.Resource != first.Resource || be.Limit != first.Limit {
			t.Errorf("run %d: tripped %s at %d, run 0 tripped %s at %d — siblings must fail identically",
				run, be.Resource, be.Limit, first.Resource, first.Limit)
		}
		if err := <-done; err != nil {
			t.Errorf("run %d: concurrent in-budget query: %v", run, err)
		}
	}
}
