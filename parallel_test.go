package tlc

import (
	"fmt"
	"sync"
	"testing"
)

// parityFactor keeps the XMark document small enough that the full
// workload × engines sweep stays fast under -race, while still producing
// multi-tree sequences.
const parityFactor = 0.02

func openXMark(t *testing.T) *Database {
	t.Helper()
	db := Open()
	if err := db.LoadXMark("auction.xml", parityFactor); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestParallelismParity asserts that evaluation is deterministic and that
// requests running in parallel do not disturb one another: for every
// workload query on every algebra engine, a second run reproduces the
// first one's bytes and store counters exactly, and two runs of one
// Prepared on two goroutines at once each return those bytes, including
// document order.
func TestParallelismParity(t *testing.T) {
	db := openXMark(t)
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				p, err := db.Compile(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				db.ResetStats()
				first, err := db.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				firstStats := db.Stats()
				want := first.XML()

				db.ResetStats()
				again, err := db.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := db.Stats(); got != firstStats {
					t.Errorf("store counters not reproducible:\n  first:  %v\n  second: %v", firstStats, got)
				}
				if again.XML() != want {
					t.Error("second run differs from the first")
				}

				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := db.Run(p)
						if err != nil {
							t.Errorf("concurrent run: %v", err)
							return
						}
						if got := res.XML(); got != want {
							t.Errorf("concurrent run differs from a lone run\nwant: %.200s\ngot:  %.200s", want, got)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// TestPlannerParity asserts the cost-based planner's contract: for every
// workload query and every algebra engine, the planned plan produces
// exactly the tree multiset of the unplanned one (compared as SortedXML —
// the planner's filter and edge reordering may permute sequence order but
// never the result set).
func TestPlannerParity(t *testing.T) {
	db := openXMark(t)
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				off, err := db.Query(q.Text, WithEngine(e), WithPlanner(false))
				if err != nil {
					t.Fatal(err)
				}
				on, err := db.Query(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				wantSorted := off.SortedXML()
				gotSorted := on.SortedXML()
				if len(gotSorted) != len(wantSorted) {
					t.Fatalf("planner on returns %d trees, off returns %d", len(gotSorted), len(wantSorted))
				}
				for i := range wantSorted {
					if gotSorted[i] != wantSorted[i] {
						t.Fatalf("planner on/off results differ at sorted tree %d:\noff: %.200s\non:  %.200s",
							i, wantSorted[i], gotSorted[i])
					}
				}
			})
		}
	}
}

// TestConcurrentRuns is the regression test for the atomic store counters:
// many goroutines issue Run calls against one Database — mixed engines,
// statistics enabled — and every result must match the result of a lone
// run. Run it under -race to check the synchronization, not just the
// outcomes.
func TestConcurrentRuns(t *testing.T) {
	db := openXMark(t)
	queries := []string{
		`FOR $p IN document("auction.xml")//person WHERE $p/age > 25 RETURN $p/name`,
		`FOR $o IN document("auction.xml")//open_auction RETURN <bids>{count($o/bidder)}</bids>`,
		`FOR $i IN document("auction.xml")//item RETURN <loc>{$i/location/text()}</loc>`,
	}
	engines := []Engine{TLC, TLCOpt, GTP, TAX, Nav}

	type job struct {
		prep *Prepared
		want string
	}
	var jobs []job
	for qi, q := range queries {
		for _, e := range engines {
			prep, err := db.Compile(q, WithEngine(e))
			if err != nil {
				t.Fatalf("query %d engine %v: %v", qi, e, err)
			}
			res, err := db.Run(prep)
			if err != nil {
				t.Fatalf("query %d engine %v: %v", qi, e, err)
			}
			jobs = append(jobs, job{prep: prep, want: res.XML()})
		}
	}

	db.ResetStats()
	const goroutines = 8
	const repsPerGoroutine = 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repsPerGoroutine; r++ {
				j := jobs[(g+r)%len(jobs)]
				res, err := db.Run(j.prep)
				if err != nil {
					errc <- err
					return
				}
				if got := res.XML(); got != j.want {
					errc <- fmt.Errorf("goroutine %d rep %d: result differs from a lone run", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if db.Stats().TagLookups == 0 {
		t.Error("stats were enabled but no tag lookups were counted")
	}
}

// TestWithParallelismDefaults pins the option's contract: it is ignored,
// so every value agrees with leaving it unset.
func TestWithParallelismDefaults(t *testing.T) {
	db := openSample(t)
	q := `FOR $p IN document("auction.xml")//person RETURN $p/name`
	want := ""
	for i, opts := range [][]Option{
		{},
		{WithParallelism(-1)},
		{WithParallelism(1)},
		{WithParallelism(3)},
	} {
		res, err := db.Query(q, opts...)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if i == 0 {
			want = res.XML()
			continue
		}
		if res.XML() != want {
			t.Errorf("case %d: result differs: %q vs %q", i, res.XML(), want)
		}
	}
}
