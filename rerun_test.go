package tlc

import (
	"fmt"
	"sync"
	"testing"
)

// TestPreparedRerunsAgree checks that repeated and concurrent runs of one
// Prepared agree: for every engine, each rewritable workload query (the
// ones TLCOpt rewrites) is compiled once and must give the first run's
// answer on every later run against the same database. Operators
// restructure the witness trees they own in place, so a run that instead
// mutated state outliving it — the plan, its patterns, the store — would
// show up as run-to-run drift. The par=N cases rerun the Prepared on N
// goroutines at once; under -race such a mutation is also a data race.
func TestPreparedRerunsAgree(t *testing.T) {
	db := openXMark(t)
	engines := []Engine{TLC, TLCOpt, GTP, TAX, Nav}
	for _, q := range Workload() {
		if !q.Rewritable {
			continue
		}
		for _, e := range engines {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/par=%d", q.ID, e, par), func(t *testing.T) {
					prep, err := db.Compile(q.Text, WithEngine(e))
					if err != nil {
						t.Fatal(err)
					}
					first, err := db.Run(prep)
					if err != nil {
						t.Fatal(err)
					}
					want := first.XML()
					var wg sync.WaitGroup
					for g := 0; g < par; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < 2; i++ {
								res, err := db.Run(prep)
								if err != nil {
									t.Errorf("rerun %d: %v", i, err)
									return
								}
								if got := res.XML(); got != want {
									t.Errorf("rerun %d drifted from the first run:\nfirst: %.200s\ngot:   %.200s", i, want, got)
									return
								}
							}
						}()
					}
					wg.Wait()
				})
			}
		}
	}
}
