package tlc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

const reuseXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>20</age></person>
  <person id="p2"><name>Carol</name><age>40</age></person>
  <person id="p3"><name>Dave</name><age>50</age></person>
</site>`

// TestPreparedConcurrentReuse runs one shared *Prepared from many
// goroutines at once — the access pattern of a service plan cache — and
// checks every run returns the same result. Run with -race: the test's
// value is that the detector sees the concurrent accesses to the shared
// plan DAG.
func TestPreparedConcurrentReuse(t *testing.T) {
	queries := []string{
		`FOR $p IN document("site.xml")//person WHERE $p/age > 25 RETURN $p/name`,
		// A value join exercises the sort–merge–sort path.
		`FOR $a IN document("site.xml")//person
		 FOR $b IN document("site.xml")//person
		 WHERE $a/age = $b/age RETURN $a/name`,
		// LET + nested FLWOR exercises nest-joins and flatten.
		`FOR $p IN document("site.xml")//person
		 LET $n := $p/name
		 ORDER BY $p/age DESCENDING
		 RETURN <row>{$n}</row>`,
	}
	for _, eng := range []Engine{TLC, TLCOpt, GTP, TAX, Nav} {
		for qi, q := range queries {
			t.Run(fmt.Sprintf("%s/q%d", eng, qi), func(t *testing.T) {
				db := Open()
				if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
					t.Fatal(err)
				}
				p, err := db.Compile(q, WithEngine(eng))
				if err != nil {
					t.Fatal(err)
				}
				want, err := db.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				const goroutines = 8
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(par int) {
						defer wg.Done()
						for i := 0; i < 5; i++ {
							res, err := db.RunContext(context.Background(), p)
							if err != nil {
								t.Errorf("parallel run: %v", err)
								return
							}
							if res.XML() != want.XML() {
								t.Error("concurrent reuse changed the result")
								return
							}
						}
					}(g)
				}
				wg.Wait()
			})
		}
	}
}

// TestRunContextCancelled checks an already-cancelled context stops
// evaluation before any work happens, for both evaluator families.
func TestRunContextCancelled(t *testing.T) {
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{TLC, Nav} {
		p, err := db.Compile(`FOR $p IN document("site.xml")//person RETURN $p/name`, WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.RunContext(ctx, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", eng, err)
		}
	}
}

// TestDeadlineCancelsMidPlan is the acceptance check for the cancellation
// plumbing: a deliberately expensive Cartesian query over XMark factor 1
// gets a 50ms deadline and must return a deadline error well under a
// second — the deadline has to reach the operator loops, not just the
// gaps between operators.
func TestDeadlineCancelsMidPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("loads XMark factor 1")
	}
	db := Open()
	if err := db.LoadXMark("auction.xml", 1); err != nil {
		t.Fatal(err)
	}
	// ~2550 persons x ~2175 items with no join predicate: millions of
	// stitched pairs, far beyond 50ms of work.
	q := `FOR $p IN document("auction.xml")//person
	      FOR $i IN document("auction.xml")//item
	      RETURN <pair>{$p/name}{$i/location}</pair>`
	for _, eng := range []Engine{TLC, Nav} {
		p, err := db.Compile(q, WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err = db.RunContext(ctx, p)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", eng, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s: cancellation took %v, want well under 1s", eng, elapsed)
		}
	}
}
