package tlc

import (
	"testing"
)

// fig15Allocs is what one run of each Figure 15 query allocates under TLC
// at XMark factor 0.05: the measurement (on a 2-core
// x86-64 Linux box, Go 1.24; one pass totals 50,126), and the ceiling
// TestFig15AllocationBudget holds the query to, 1.25x the measurement.
// Allocation counts hardly depend on the machine, so a query over its
// ceiling allocates more than it did; when a change means it to, measure
// again (the test logs every count with -v) and move both columns.
var fig15Allocs = map[string]struct{ measured, ceiling float64 }{
	"x1":  {76, 95},
	"x2":  {2785, 3481},
	"x3":  {2494, 3118},
	"x4":  {50, 62},
	"x5":  {890, 1112},
	"x6":  {79, 99},
	"x7":  {147, 184},
	"x8":  {4563, 5704},
	"x9":  {6085, 7606},
	"x10": {9091, 11364},
	"x11": {2035, 2544},
	"x12": {1711, 2139},
	"x13": {400, 500},
	"x14": {492, 615},
	"x15": {433, 541},
	"x16": {462, 578},
	"x17": {1110, 1388},
	"x18": {972, 1215},
	"x19": {2272, 2840},
	"x20": {214, 268},
	"Q1":  {3919, 4899},
	"Q2":  {4855, 6069},
	"10a": {4991, 6239},
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
