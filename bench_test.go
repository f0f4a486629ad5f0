// Benchmarks regenerating the paper's evaluation, one testing.B benchmark
// per table/figure:
//
//	BenchmarkFig15/<query>/<engine>   — the Figure 15 execution-time table
//	BenchmarkFig16/<query>/<config>   — Figure 16, TLC vs OPT rewrites
//	BenchmarkFig17/f=<factor>/<query> — Figure 17 scalability (TLC)
//
// plus the ablation benchmarks DESIGN.md calls out:
//
//	BenchmarkAblationNestJoin  — nest-join vs flat match + group-by
//	BenchmarkAblationValueJoin — sort–merge–sort vs nested-loop value join
//	BenchmarkAblationReuse     — extension select vs fresh match + id join
//	BenchmarkLoad              — XMark generation + indexing throughput
//
// The benchmark scale factor defaults to 0.05 and can be overridden with
// the TLC_BENCH_FACTOR environment variable; one table row is a -bench
// filter, e.g. -bench 'Fig15/^x1$/TLC$' -benchmem -count 5. Absolute numbers
// are not comparable to the paper's (different store, different hardware);
// the relative shape is what the reproduction tracks — see EXPERIMENTS.md.
// TestFig15AllocationBudget (allocs_test.go) gates allocations per run.
package tlc

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"tlc/internal/algebra"
)

func benchFactor() float64 {
	if s := os.Getenv("TLC_BENCH_FACTOR"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return 0.05
}

var benchDBCache = map[float64]*Database{}

func benchDB(b *testing.B, factor float64) *Database {
	b.Helper()
	if db, ok := benchDBCache[factor]; ok {
		return db
	}
	db := Open()
	if err := db.LoadXMark("auction.xml", factor); err != nil {
		b.Fatal(err)
	}
	benchDBCache[factor] = db
	return db
}

func runQuery(b *testing.B, db *Database, text string, e Engine) {
	b.Helper()
	p, err := db.Compile(text, WithEngine(e))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 regenerates the Figure 15 table: every workload query
// under every engine.
func BenchmarkFig15(b *testing.B) {
	db := benchDB(b, benchFactor())
	for _, q := range Workload() {
		for _, e := range Engines() {
			b.Run(fmt.Sprintf("%s/%s", q.ID, e), func(b *testing.B) {
				runQuery(b, db, q.Text, e)
			})
		}
	}
}

// BenchmarkFig16 regenerates Figure 16: the rewrite-applicable queries
// under plain TLC and the OPT (Flatten + Shadow/Illuminate) configuration.
func BenchmarkFig16(b *testing.B) {
	db := benchDB(b, benchFactor())
	for _, q := range Workload() {
		if !q.Rewritable {
			continue
		}
		for _, e := range []Engine{TLC, TLCOpt} {
			b.Run(fmt.Sprintf("%s/%s", q.ID, e), func(b *testing.B) {
				runQuery(b, db, q.Text, e)
			})
		}
	}
}

// BenchmarkFig17 regenerates Figure 17: TLC execution time for the plotted
// queries at 1x, 2x and 4x the benchmark factor — a compressed form of the
// paper's 0.1–5 sweep; TLC_BENCH_FACTOR moves the whole sweep.
func BenchmarkFig17(b *testing.B) {
	base := benchFactor()
	for _, mult := range []float64{1, 2, 4} {
		f := base * mult
		db := benchDB(b, f)
		for _, id := range []string{"x3", "x5", "x13", "Q1", "Q2"} {
			q, ok := workloadByID(id)
			if !ok {
				b.Fatalf("unknown query %s", id)
			}
			b.Run(fmt.Sprintf("f=%g/%s", f, id), func(b *testing.B) {
				runQuery(b, db, q.Text, TLC)
			})
		}
	}
}

func workloadByID(id string) (WorkloadQuery, bool) {
	for _, q := range Workload() {
		if q.ID == id {
			return q, true
		}
	}
	return WorkloadQuery{}, false
}

// qNest clusters all bidders per auction — matched by a single nest-join
// under TLC and by flat multiplication + group-by under GTP. The pair
// isolates the paper's central physical claim (Section 5.2 / Figure 14).
const qNest = `FOR $o IN document("auction.xml")//open_auction
RETURN <bids>{count($o/bidder)}</bids>`

// BenchmarkAblationNestJoin compares the nest-join (TLC) against the
// grouping procedure (GTP) on the same clustering query.
func BenchmarkAblationNestJoin(b *testing.B) {
	db := benchDB(b, benchFactor())
	b.Run("nest-join", func(b *testing.B) { runQuery(b, db, qNest, TLC) })
	b.Run("group-by", func(b *testing.B) { runQuery(b, db, qNest, GTP) })
}

// qJoin is an equality value join between persons and bidder references.
const qJoin = `FOR $p IN document("auction.xml")//person
FOR $o IN document("auction.xml")//open_auction
WHERE $p/@id = $o/bidder//@person
RETURN <hit>{$p/name/text()}</hit>`

// BenchmarkAblationValueJoin compares the sort–merge–sort equality join of
// Section 5.1 against a nested-loop join, via the physical layer knob.
func BenchmarkAblationValueJoin(b *testing.B) {
	db := benchDB(b, benchFactor())
	b.Run("sort-merge-sort", func(b *testing.B) { runQuery(b, db, qJoin, TLC) })
	b.Run("nested-loop", func(b *testing.B) {
		p, err := db.Compile(qJoin, WithEngine(TLC))
		if err != nil {
			b.Fatal(err)
		}
		forceNestedLoopJoins(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// qReuse re-matches person names in the RETURN clause: TLC reuses the
// person match through a logical-class extension select; TAX re-matches
// from the document root and joins back on identity.
const qReuse = `FOR $p IN document("auction.xml")//person
WHERE $p/age > 25
RETURN <person>{$p/name/text()}</person>`

// BenchmarkAblationReuse measures pattern tree reuse (Section 4.1): the
// extension select against TAX's fresh match + identity join.
func BenchmarkAblationReuse(b *testing.B) {
	db := benchDB(b, benchFactor())
	b.Run("extension-select", func(b *testing.B) { runQuery(b, db, qReuse, TLC) })
	b.Run("fresh-match", func(b *testing.B) { runQuery(b, db, qReuse, TAX) })
}

// BenchmarkLoad measures XMark generation plus store indexing.
func BenchmarkLoad(b *testing.B) {
	f := benchFactor()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := Open()
		if err := db.LoadXMark("auction.xml", f); err != nil {
			b.Fatal(err)
		}
	}
}

// forceNestedLoopJoins flips every value join in a compiled plan to the
// nested-loop strategy.
func forceNestedLoopJoins(p *Prepared) {
	for _, op := range algebra.Ops(p.plan) {
		if j, ok := op.(*algebra.Join); ok {
			j.ForceNestedLoop = true
		}
	}
}
