package tlc

import (
	"fmt"
	"sync"
	"testing"
)

// TestCOWEngineIsolation is the end-to-end guard for the copy-on-write
// witness trees: for every engine, a query whose plan shares subplans (the
// rewritable workload queries produce fan-out under TLCOpt) must produce
// the same result when evaluated repeatedly against the same database — a
// structural-sharing bug shows up as run-to-run drift, because a
// consumer's mutation leaks into a memoized sibling. The par=N cases rerun
// the Prepared on N goroutines at once; under -race a plan or store
// structure that a run mutates instead of copying is also a data race.
func TestCOWEngineIsolation(t *testing.T) {
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
