package tlc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBudgetErrorTyped checks the cardinality budget surfaces as a typed
// *BudgetError on every engine family: the algebra evaluators check each
// operator output, the navigational interpreter its accumulated rows.
func TestBudgetErrorTyped(t *testing.T) {
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	// 4x4 = 16 pairs, budget 3: every engine must trip.
	q := `FOR $a IN document("site.xml")//person
	      FOR $b IN document("site.xml")//person
	      RETURN <pair>{$a/name}{$b/name}</pair>`
	for _, eng := range []Engine{TLC, TLCOpt, GTP, TAX, Nav} {
		p, err := db.Compile(q, WithEngine(eng), WithLimits(Limits{MaxResultCard: 3}))
		if err != nil {
			t.Fatal(err)
		}
		_, err = db.Run(p)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Errorf("%s: err = %v, want *BudgetError", eng, err)
			continue
		}
		if be.Limit != 3 {
			t.Errorf("%s: limit = %d, want 3", eng, be.Limit)
		}
	}
}

// TestWallBudgetIsPolicyNotDeadline checks MaxWall reports as a budget
// error, not context.DeadlineExceeded — callers must be able to tell "your
// query is over its time budget" (422) from "the request timed out" (504).
func TestWallBudgetIsPolicyNotDeadline(t *testing.T) {
	db := Open()
	if err := db.LoadXMark("auction.xml", 0.05); err != nil {
		t.Fatal(err)
	}
	q := `FOR $p IN document("auction.xml")//person
	      FOR $i IN document("auction.xml")//item
	      RETURN <pair>{$p/name}{$i/location}</pair>`
	p, err := db.Compile(q, WithLimits(Limits{MaxWall: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Run(p)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Error("wall budget leaked as context.DeadlineExceeded")
	}
}

// TestUngovernedAndGenerousBudgetAgree checks governance is observation
// only until a budget trips: a run under generous limits is byte-identical
// to an ungoverned run.
func TestUngovernedAndGenerousBudgetAgree(t *testing.T) {
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	q := `FOR $p IN document("site.xml")//person WHERE $p/age > 25
	      ORDER BY $p/age RETURN $p/name`
	for _, eng := range []Engine{TLC, TLCOpt, GTP, TAX, Nav} {
		plain, err := db.Query(q, WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		governed, err := db.Query(q, WithEngine(eng), WithLimits(Limits{
			MaxArenaNodes: 1 << 40,
			MaxArenaBytes: 1 << 50,
			MaxResultCard: 1 << 40,
			MaxWall:       time.Hour,
		}))
		if err != nil {
			t.Fatalf("%s governed: %v", eng, err)
		}
		if plain.XML() != governed.XML() {
			t.Errorf("%s: governed run changed the result", eng)
		}
	}
}

// TestPreparedLimitsAccessor checks the WithLimits budget reaches the
// Prepared.
func TestPreparedLimitsAccessor(t *testing.T) {
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	want := Limits{MaxArenaNodes: 10, MaxArenaBytes: 20, MaxResultCard: 30, MaxWall: 40 * time.Millisecond}
	p, err := db.Compile(`FOR $p IN document("site.xml")//person RETURN $p/name`, WithLimits(want))
	if err != nil {
		t.Fatal(err)
	}
	if p.Limits() != want {
		t.Errorf("Limits() = %+v, want %+v", p.Limits(), want)
	}
}

// TestBudgetAbortsRunawayJoinQuickly is the acceptance check for the
// governor: the same deliberately expensive Cartesian join over XMark
// factor 1 as TestDeadlineCancelsMidPlan, but killed by a resource budget
// instead of a deadline — it must abort with a typed *BudgetError well
// under a second, while a concurrent in-budget query on the same store
// completes normally. One tenant's runaway query is that tenant's problem
// only.
func TestBudgetAbortsRunawayJoinQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("loads XMark factor 1")
	}
	db := Open()
	if err := db.LoadXMark("auction.xml", 1); err != nil {
		t.Fatal(err)
	}
	runaway := `FOR $p IN document("auction.xml")//person
	            FOR $i IN document("auction.xml")//item
	            RETURN <pair>{$p/name}{$i/location}</pair>`
	// The node budget trips during the join's output stitching; the wall
	// budget is the backstop in case a plan shape defers allocation.
	p, err := db.Compile(runaway, WithLimits(Limits{MaxArenaNodes: 100_000, MaxWall: 500 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	inBudget, err := db.Compile(
		`FOR $p IN document("auction.xml")//person WHERE $p/age > 25 RETURN $p/name`,
		WithLimits(Limits{MaxArenaNodes: 1 << 30}))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var concurrentErr error
	var concurrentLen int
	go func() {
		defer wg.Done()
		res, err := db.Run(inBudget)
		if err != nil {
			concurrentErr = err
			return
		}
		concurrentLen = res.Len()
	}()

	start := time.Now()
	_, err = db.Run(p)
	elapsed := time.Since(start)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("runaway err = %v, want *BudgetError", err)
	}
	if elapsed > time.Second {
		t.Errorf("budget abort took %v, want well under 1s", elapsed)
	}
	wg.Wait()
	if concurrentErr != nil {
		t.Errorf("concurrent in-budget query failed: %v", concurrentErr)
	}
	if concurrentLen == 0 {
		t.Error("concurrent in-budget query returned no rows")
	}
}
