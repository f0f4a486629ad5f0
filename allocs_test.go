package tlc

import (
	"testing"
)

// fig15Allocs is what one run of each Figure 15 query allocates under TLC
// at XMark factor 0.05: the measurement (on a 2-core x86-64 Linux box, Go
// 1.24; one pass totals 11,091 — 50,126 before the operators between
// Select and Construct stopped allocating per witness tree), and the
// ceiling TestFig15AllocationBudget holds the query to, 1.25x the
// measurement. What a pass still allocates is mostly per operator call
// (sequences, join maps, the matcher's vectors), member lists of classes
// that bind several nodes, and content strings read for predicates.
// Allocation counts hardly depend on the machine, so a query over its
// ceiling allocates more than it did; when a change means it to, measure
// again (the test logs every count with -v) and move both columns.
var fig15Allocs = map[string]struct{ measured, ceiling float64 }{
	"x1":  {62, 77},
	"x2":  {117, 146},
	"x3":  {697, 871},
	"x4":  {50, 62},
	"x5":  {385, 481},
	"x6":  {64, 80},
	"x7":  {120, 150},
	"x8":  {480, 600},
	"x9":  {918, 1147},
	"x10": {1949, 2436},
	"x11": {243, 303},
	"x12": {190, 237},
	"x13": {113, 141},
	"x14": {77, 96},
	"x15": {83, 103},
	"x16": {88, 110},
	"x17": {93, 116},
	"x18": {76, 95},
	"x19": {564, 705},
	"x20": {177, 221},
	"Q1":  {1084, 1355},
	"Q2":  {2061, 2576},
	"10a": {1395, 1743},
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

// BenchmarkFig15Pass runs one pass over the 23 workload queries under TLC
// per iteration, writing every answer with Result.XML, at factor
// TLC_BENCH_FACTOR (default 0.05). With -benchmem it reports what a whole
// pass allocates, construction and serialization included; EXPERIMENTS.md
// compares it across changes:
//
//	TLC_BENCH_FACTOR=0.1 go test -run '^$' -bench Fig15Pass -benchtime 20x -benchmem .
func BenchmarkFig15Pass(b *testing.B) {
	db := benchDB(b, benchFactor())
	var ps []*Prepared
	for _, q := range Workload() {
		p, err := db.Compile(q.Text, WithEngine(TLC))
		if err != nil {
			b.Fatalf("%s: %v", q.ID, err)
		}
		ps = append(ps, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, p := range ps {
			r, err := db.Run(p)
			if err != nil {
				b.Fatal(err)
			}
			_ = r.XML()
		}
	}
}
