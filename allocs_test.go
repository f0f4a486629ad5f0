package tlc

import (
	"runtime"
	"testing"
)

// fig15Allocs is what one run of each Figure 15 query allocates under TLC
// at XMark factor 0.05: the measurement (on a 2-core x86-64 Linux box, Go
// 1.24; one pass totals 5,609 — 11,091 before class member lists moved
// into the arena's list space, 50,126 before the operators between
// Select and Construct stopped allocating per witness tree), and the
// ceiling TestFig15AllocationBudget holds the query to, 1.25x the
// measurement. What a pass still allocates is mostly per operator call
// (sequences, join maps, the matcher's vectors), arena blocks, and content
// strings read for predicates.
// Allocation counts hardly depend on the machine, so a query over its
// ceiling allocates more than it did; when a change means it to, measure
// again (the test logs every count with -v) and move both columns.
var fig15Allocs = map[string]struct{ measured, ceiling float64 }{
	"x1":  {54, 67},
	"x2":  {105, 131},
	"x3":  {353, 441},
	"x4":  {38, 47},
	"x5":  {180, 225},
	"x6":  {55, 68},
	"x7":  {94, 117},
	"x8":  {313, 391},
	"x9":  {809, 1011},
	"x10": {821, 1026},
	"x11": {178, 222},
	"x12": {152, 190},
	"x13": {86, 107},
	"x14": {72, 90},
	"x15": {75, 93},
	"x16": {75, 93},
	"x17": {85, 106},
	"x18": {66, 82},
	"x19": {252, 315},
	"x20": {130, 162},
	"Q1":  {507, 633},
	"Q2":  {492, 615},
	"10a": {617, 771},
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

// fig15PassBytes is what one pass over the 23 Figure 15 queries allocates
// under TLC at XMark factor 0.05, answers written with Result.XML
// included: the measurement (2-core x86-64 Linux box, Go 1.24) and the
// ceiling TestFig15PassBytes holds a pass to, 1.25x the measurement. A
// pass allocated 6.57 MB at this factor, and BenchmarkFig15Pass 13.1 MB
// per pass at factor 0.1, while witness nodes and trees held pointers;
// 3.59 MB and 7.1 MB since they hold none.
var fig15PassBytes = struct{ measured, ceiling float64 }{3_590_000, 4_487_000}

// TestFig15PassBytes gates the bytes one pass allocates, the quantity the
// collector's pace follows: a change that makes witness nodes, trees or
// their lists bigger, or allocates per tree again, shows here.
func TestFig15PassBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	db := Open()
	if err := db.LoadXMark("auction.xml", 0.05); err != nil {
		t.Fatal(err)
	}
	var ps []*Prepared
	for _, q := range Workload() {
		p, err := db.Compile(q.Text, WithEngine(TLC))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		ps = append(ps, p)
	}
	pass := func() {
		for _, p := range ps {
			r, err := db.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			_ = r.XML()
		}
	}
	pass()
	const passes = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		pass()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / passes
	t.Logf("one pass over the workload: %.0f bytes (measured %.0f, ceiling %.0f)", got, fig15PassBytes.measured, fig15PassBytes.ceiling)
	if got > fig15PassBytes.ceiling {
		t.Errorf("a pass allocates %.0f bytes, over its ceiling of %.0f", got, fig15PassBytes.ceiling)
	}
}

// BenchmarkFig15Pass runs one pass over the 23 workload queries under TLC
// per iteration, writing every answer with Result.XML, at factor
// TLC_BENCH_FACTOR (default 0.05). With -benchmem it reports what a whole
// pass allocates, construction and serialization included; EXPERIMENTS.md
// compares it across changes. "serial" runs the passes on one goroutine;
// "parallel" runs them on GOMAXPROCS goroutines at once (two with -cpu 2),
// the setting in which the collector's share of the CPU profile and of
// GODEBUG=gctrace=1 is measured:
//
//	TLC_BENCH_FACTOR=0.1 go test -run '^$' -bench Fig15Pass -benchtime 20x -benchmem -cpu 2 .
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
	pass := func(b *testing.B) {
		for _, p := range ps {
			r, err := db.Run(p)
			if err != nil {
				b.Error(err)
				return
			}
			_ = r.XML()
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			pass(b)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				pass(b)
			}
		})
	})
}
