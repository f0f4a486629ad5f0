package tlc

import (
	"testing"
)

// fig15Allocs is what one run of each Figure 15 query allocates under TLC
// at XMark factor 0.05: the measurement (on a 2-core
// x86-64 Linux box, Go 1.24; one pass totals 56,103), and the ceiling
// TestFig15AllocationBudget holds the query to, 1.25x the measurement.
// Allocation counts hardly depend on the machine, so a query over its
// ceiling allocates more than it did; when a change means it to, measure
// again (the test logs every count with -v) and move both columns.
var fig15Allocs = map[string]struct{ measured, ceiling float64 }{
	"x1":  {83, 104},
	"x2":  {2792, 3490},
	"x3":  {2545, 3181},
	"x4":  {57, 71},
	"x5":  {901, 1126},
	"x6":  {87, 109},
	"x7":  {159, 199},
	"x8":  {4578, 5723},
	"x9":  {6297, 7871},
	"x10": {9905, 12381},
	"x11": {2051, 2564},
	"x12": {1727, 2159},
	"x13": {410, 513},
	"x14": {499, 624},
	"x15": {441, 551},
	"x16": {469, 586},
	"x17": {1117, 1396},
	"x18": {979, 1224},
	"x19": {2281, 2851},
	"x20": {228, 285},
	"Q1":  {3997, 4996},
	"Q2":  {9320, 11650},
	"10a": {5181, 6476},
}

// TestFig15AllocationBudget gates the heap allocations of every Figure 15
// query: each must stay within its ceiling in fig15Allocs. Evaluation is
// serial, so the count does not depend on the machine's core count.
func TestFig15AllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the arena's slabs, so counts differ")
	}
	db := Open()
	if err := db.LoadXMark("auction.xml", 0.05); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, q := range Workload() {
		p, err := db.Compile(q.Text, WithEngine(TLC))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := db.Run(p); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
		})
		total += got
		want, ok := fig15Allocs[q.ID]
		switch {
		case !ok:
			t.Errorf("%s: %.0f allocations per run and no ceiling in fig15Allocs", q.ID, got)
		case got > want.ceiling:
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f (measured %.0f)", q.ID, got, want.ceiling, want.measured)
		default:
			t.Logf("%s: %.0f allocations per run (measured %.0f, ceiling %.0f)", q.ID, got, want.measured, want.ceiling)
		}
	}
	t.Logf("one pass over the workload: %.0f allocations", total)
}
