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

// budgetFixture loads four person documents into one database and
// returns a cross-document join query over them whose matching allocates
// about the same number of witness nodes in every document but returns no
// rows (the ages are disjoint), so arena usage comes from matching, not
// result construction.
func budgetFixture(t *testing.T) (db *Database, query string) {
	t.Helper()
	db = Open()
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("budget%d.xml", i)
		var b strings.Builder
		b.WriteString("<site>")
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&b, "<person id=\"p%d\"><name>n%d</name><age>%d</age></person>", j, j, 1000*i+j)
		}
		b.WriteString("</site>")
		if err := db.LoadXMLString(names[i], b.String()); err != nil {
			t.Fatal(err)
		}
	}
	query = fmt.Sprintf(`FOR $a IN document(%q)//person
	                     FOR $b IN document(%q)//person
	                     FOR $c IN document(%q)//person
	                     FOR $d IN document(%q)//person
	                     WHERE $a/age = $b/age AND $b/age = $c/age AND $c/age = $d/age
	                     RETURN $a/name`, names[0], names[1], names[2], names[3])
	return db, query
}

// TestShardSharedBudget checks the governor budget is query-wide: the
// matching of all four documents charges one governor, so a node budget of
// half what the join allocates must trip, with the node resource at
// exactly that limit. A budget kept per document would let the run finish
// inside it, since each document takes a quarter.
func TestShardSharedBudget(t *testing.T) {
	// What a run allocates is not repeatable: the governor charges per
	// slab, partially filled slabs live in a sync.Pool, and a pool miss
	// charges a whole fresh slab. Misses come from GC clearing the pool —
	// pinned off below — and, under the race detector, from sync.Pool
	// dropping a random quarter of Puts, which multiplies the slab count
	// and lets it wander by about a tenth from run to run. So the run is
	// measured by the slabs it allocates (which a budgeting bug cannot
	// distort), and the budget is half of that.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	db, query := budgetFixture(t)

	// The governor's charge for one slab, read off a budget no slab fits in.
	var be *BudgetError
	if _, err := db.Query(query, WithLimits(Limits{MaxArenaNodes: 1})); !errors.As(err, &be) {
		t.Fatalf("one-node budget: err = %v, want *BudgetError", err)
	}
	slabNodes := be.Observed

	_, before, _ := seq.ArenaTotals()
	if _, err := db.Query(query, WithLimits(Limits{MaxArenaNodes: 1 << 30})); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	_, after, _ := seq.ArenaTotals()
	budget := (after - before) * slabNodes / 2

	_, err := db.Query(query, WithLimits(Limits{MaxArenaNodes: budget}))
	if !errors.As(err, &be) {
		t.Fatalf("err = %v under half the %d slabs the run allocates, want *BudgetError", err, after-before)
	}
	if be.Resource != governor.ResourceNodes || be.Limit != budget {
		t.Errorf("tripped %s at limit %d, want %s at %d", be.Resource, be.Limit, governor.ResourceNodes, budget)
	}
}

// TestShardBudgetChaosAbortsSiblings is the chaos half: with a slow-matcher
// fault keeping queries in flight when the budget trips, the over-budget
// query must abort promptly with one typed *BudgetError, identically on
// every run, and its sibling — a concurrent in-budget query on the same
// store — is untouched.
func TestShardBudgetChaosAbortsSiblings(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db, query := budgetFixture(t)

	inBudget, err := db.Compile(query, WithLimits(Limits{MaxArenaNodes: 1 << 30}))
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
			res, err := db.Run(inBudget)
			if err == nil && res.Len() != 0 {
				err = fmt.Errorf("disjoint-age join returned %d rows", res.Len())
			}
			done <- err
		}()

		start := time.Now()
		_, err := db.Query(query, WithLimits(Limits{MaxArenaNodes: 64}))
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
			t.Errorf("run %d: tripped %s at %d, run 0 tripped %s at %d — every run must fail identically",
				run, be.Resource, be.Limit, first.Resource, first.Limit)
		}
		if err := <-done; err != nil {
			t.Errorf("run %d: concurrent in-budget query: %v", run, err)
		}
	}
}
