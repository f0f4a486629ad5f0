// Package baselines_test cross-validates the three baseline engines (TAX,
// GTP, navigational) against the TLC engine: every engine must produce the
// same result trees for the same query, while their plans exhibit the
// characteristic shapes Section 6.1 describes.
package baselines_test

import (
	"sort"
	"strings"
	"testing"

	"tlc/internal/algebra"
	"tlc/internal/baselines/gtp"
	"tlc/internal/baselines/nav"
	"tlc/internal/baselines/tax"
	"tlc/internal/rewrite"
	"tlc/internal/seq"
	"tlc/internal/store"
	"tlc/internal/translate"
	"tlc/internal/xquery"
)

const testAuction = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>20</age></person>
    <person id="p2"><name>Carol</name><age>40</age></person>
    <person id="p3"><name>Dave</name></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3</increase></bidder>
      <bidder><personref person="p2"/><increase>4</increase></bidder>
      <bidder><personref person="p0"/><increase>5</increase></bidder>
      <bidder><personref person="p2"/><increase>6</increase></bidder>
      <bidder><personref person="p0"/><increase>7</increase></bidder>
      <bidder><personref person="p2"/><increase>8</increase></bidder>
      <quantity>2</quantity>
    </open_auction>
    <open_auction id="a1">
      <bidder><personref person="p2"/><increase>1</increase></bidder>
      <quantity>5</quantity>
    </open_auction>
    <open_auction id="a2"><quantity>1</quantity></open_auction>
  </open_auctions>
</site>`

var crossQueries = map[string]string{
	"simple-for": `FOR $p IN document("auction.xml")//person RETURN $p/name`,
	"predicate": `FOR $p IN document("auction.xml")//person
		WHERE $p/age > 25 RETURN $p/name/text()`,
	"equality": `FOR $p IN document("auction.xml")//person
		WHERE $p/@id = "p1" RETURN <hit>{$p/name/text()}</hit>`,
	"count-filter": `FOR $o IN document("auction.xml")//open_auction
		WHERE count($o/bidder) > 5 RETURN $o/@id`,
	"count-return": `FOR $o IN document("auction.xml")//open_auction
		RETURN <n>{count($o/bidder)}</n>`,
	"value-join": `FOR $p IN document("auction.xml")//person
		FOR $o IN document("auction.xml")//open_auction
		WHERE $p/@id = $o/bidder//@person AND $p/age > 25
		RETURN <pair>{$p/name/text()}</pair>`,
	"q1": `FOR $p IN document("auction.xml")//person
		FOR $o IN document("auction.xml")//open_auction
		WHERE count($o/bidder) > 5 AND $p/age > 25
		  AND $p/@id = $o/bidder//@person
		RETURN <person name={$p/name/text()}> $o/bidder </person>`,
	"q2": `FOR $p IN document("auction.xml")//person
		LET $a := FOR $o IN document("auction.xml")//open_auction
			WHERE count($o/bidder) > 5 AND $p/@id = $o/bidder//@person
			RETURN <myauction> {$o/bidder}
				<myquan>{$o/quantity/text()}</myquan></myauction>
		WHERE $p/age > 25
		  AND EVERY $i IN $a/myquan SATISFIES $i > 1
		RETURN <person name={$p/name/text()}>{$a/bidder}</person>`,
	"quantifier": `FOR $o IN document("auction.xml")//open_auction
		WHERE SOME $b IN $o/bidder SATISFIES $b/increase > 7
		RETURN $o/@id`,
	"every-vacuous": `FOR $o IN document("auction.xml")//open_auction
		WHERE EVERY $b IN $o/bidder SATISFIES $b/increase > 0
		RETURN $o/@id`,
	"let-count": `FOR $o IN document("auction.xml")//open_auction
		LET $b := $o/bidder
		RETURN <a><c>{count($b)}</c></a>`,
	"var-rooted": `FOR $o IN document("auction.xml")//open_auction
		FOR $b IN $o/bidder
		WHERE $b/increase > 6
		RETURN $b/increase/text()`,
	"or": `FOR $p IN document("auction.xml")//person
		WHERE $p/age > 35 OR $p/age < 25
		RETURN $p/name/text()`,
	"or-exists": `FOR $p IN document("auction.xml")//person
		WHERE $p/age OR $p/name = "Dave"
		RETURN $p/name/text()`,
	"not": `FOR $p IN document("auction.xml")//person
		WHERE not($p/age)
		RETURN $p/name/text()`,
	"not-pred": `FOR $p IN document("auction.xml")//person
		WHERE not($p/age > 25)
		RETURN $p/name/text()`,
	"or-not": `FOR $p IN document("auction.xml")//person
		WHERE not($p/age) OR $p/age > 35
		RETURN $p/name/text()`,
	"or-under-and": `FOR $p IN document("auction.xml")//person
		WHERE $p/age > 25 AND ($p/name = "Carol" OR $p/age < 35)
		RETURN $p/name/text()`,
	// The disjuncts hang off two different pattern nodes, so the TLC
	// translator cannot fold them into one OR-annotated edge group and
	// compiles optional branches under a DisjFilter instead.
	"or-two-anchors": `FOR $o IN document("auction.xml")//open_auction
		FOR $b IN $o/bidder
		WHERE $b/increase > 7 OR $o/quantity > 4
		RETURN $b/increase/text()`,
	"order-by": `FOR $p IN document("auction.xml")//person
		WHERE $p/age > 0
		ORDER BY $p/age DESCENDING
		RETURN $p/age/text()`,
	// The queries below each reach an evaluation path that no other test
	// query runs. A path of two steps into a nested block's constructed
	// binding anchors the extension at a constructed node, which the
	// extender matches in memory (physical.memAlts).
	"reach-temp-anchor": `FOR $p IN document("auction.xml")//person
		FOR $a IN FOR $o IN document("auction.xml")//open_auction
			WHERE $p/@id = $o/bidder/personref/@person
			RETURN <w><q>{$o/quantity}</q></w>
		RETURN <r>{$a/q/quantity}</r>`,
	// A step below a stored node copied into the constructed tree reads
	// the stored node's children from the columns (storedRelatives).
	"reach-stored-below-temp": `FOR $p IN document("auction.xml")//person
		FOR $a IN FOR $o IN document("auction.xml")//open_auction
			WHERE $p/@id = $o/bidder/personref/@person
			RETURN <w><q>{$o/bidder}</q></w>
		RETURN <r>{$a/q/bidder/increase}</r>`,
	// An uncorrelated LET joins every outer tree with all inner trees
	// (physical.NestAllJoin).
	"reach-nest-all": `FOR $p IN document("auction.xml")//person
		LET $a := FOR $o IN document("auction.xml")//open_auction
			RETURN $o/quantity
		RETURN <r>{$p/name}<n>{count($a)}</n></r>`,
	// A bare path as a condition is an existence test.
	"reach-where-exists": `FOR $p IN document("auction.xml")//person
		WHERE $p/age RETURN $p/name`,
	// A comparison of two classes of one joined tree filters after the
	// value join (algebra.FilterCompare).
	"reach-filter-compare": `FOR $p IN document("auction.xml")//person
		FOR $o IN document("auction.xml")//open_auction
		WHERE $p/@id = $o/bidder/personref/@person AND $p/age > $o/quantity
		RETURN <r>{$p/name}{$o/quantity}</r>`,
	// A join path below a LET-clustered variable gives each left tree
	// several join values; one right tree matching several of them pairs
	// once (physical.dedupSorted).
	"reach-clustered-left-key": `FOR $o IN document("auction.xml")//open_auction
		LET $b := $o/bidder
		FOR $p IN document("auction.xml")//person
		WHERE $b/personref/@person = $p/@id
		RETURN <r>{$o/quantity}{$p/name}</r>`,
	// The rewriter reads the classes of every operator above a Select
	// it could Flatten (algebra.ClassUser): here a FilterCompare, a
	// DisjFilter, a Sort and, once one Flatten is in, the Flatten.
	"reach-flatten-chain": `FOR $o IN document("auction.xml")//open_auction
		FOR $b IN $o/bidder
		WHERE count($o/bidder) > 3 AND $b/increase > $o/quantity
		  AND ($b/increase > 7 OR $o/quantity > 4)
		ORDER BY $b/increase DESCENDING
		RETURN <r>{$b/increase}</r>`,
	// ... and a Prune above a LET's join.
	"reach-flatten-prune": `FOR $o IN document("auction.xml")//open_auction
		FOR $b IN $o/bidder
		LET $a := FOR $p IN document("auction.xml")//person
			WHERE $p/@id = $b/personref/@person
			RETURN <w>{$p/name}</w>
		WHERE count($o/bidder) > 3
		RETURN <r>{$b/increase}{$a/name}</r>`,
	// ... and, in the round after a Shadow rewrite, the Shadow and the
	// Illuminate.
	"reach-shadow-chain": `FOR $o IN document("auction.xml")//open_auction
		FOR $b IN $o/bidder
		FOR $c IN $o/bidder
		WHERE $c/increase > 7
		RETURN <x>{$b/increase}{$o/bidder}</x>`,
	// Under the Section 4 rewrites the repeated bidder branch is removed
	// by a pure Flatten (Def. 5).
	"reach-flatten": `FOR $o IN document("auction.xml")//open_auction
		FOR $b IN $o/bidder
		WHERE count($o/bidder) > 3
		RETURN <r>{$b/increase}</r>`,
}

func loadStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	if _, err := s.LoadXML("auction.xml", strings.NewReader(testAuction)); err != nil {
		t.Fatal(err)
	}
	return s
}

func canonical(s *store.Store, out seq.Seq) string {
	xs := make([]string, len(out))
	for i, w := range out {
		xs[i] = w.XML(s)
	}
	sort.Strings(xs)
	return strings.Join(xs, "\n")
}

func TestEnginesAgree(t *testing.T) {
	s := loadStore(t)
	for name, q := range crossQueries {
		t.Run(name, func(t *testing.T) {
			ast, err := xquery.Parse(q)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			tlcRes, err := translate.Translate(ast)
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			want, err := algebra.Run(s, tlcRes.Plan)
			if err != nil {
				t.Fatalf("tlc eval: %v", err)
			}
			wantC := canonical(s, want)
			if strings.HasPrefix(name, "reach-") && len(want) == 0 {
				t.Fatalf("empty answer; the query must reach its path with data")
			}

			// TLCOpt: the Section 4 rewrites over a fresh TLC plan.
			optRes, err := translate.Translate(ast)
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			optPlan, _ := rewrite.Optimize(optRes.Plan)
			optOut, err := algebra.Run(s, optPlan)
			if err != nil {
				t.Fatalf("opt eval: %v\nplan:\n%s", err, algebra.Explain(optPlan))
			}
			if name == "reach-flatten" && !strings.Contains(algebra.Explain(optPlan), "Flatten (") {
				t.Errorf("OPT plan holds no Flatten:\n%s", algebra.Explain(optPlan))
			}
			if got := canonical(s, optOut); got != wantC {
				t.Errorf("OPT differs from TLC.\nTLC:\n%s\nOPT:\n%s\nplan:\n%s",
					wantC, got, algebra.Explain(optPlan))
			}

			gtpRes, err := gtp.Translate(ast)
			if err != nil {
				t.Fatalf("gtp translate: %v", err)
			}
			gtpOut, err := algebra.Run(s, gtpRes.Plan)
			if err != nil {
				t.Fatalf("gtp eval: %v\nplan:\n%s", err, algebra.Explain(gtpRes.Plan))
			}
			if got := canonical(s, gtpOut); got != wantC {
				t.Errorf("GTP differs from TLC.\nTLC:\n%s\nGTP:\n%s\nplan:\n%s",
					wantC, got, algebra.Explain(gtpRes.Plan))
			}

			taxRes, err := tax.Translate(ast)
			if err != nil {
				t.Fatalf("tax translate: %v", err)
			}
			taxOut, err := algebra.Run(s, taxRes.Plan)
			if err != nil {
				t.Fatalf("tax eval: %v\nplan:\n%s", err, algebra.Explain(taxRes.Plan))
			}
			if got := canonical(s, taxOut); got != wantC {
				t.Errorf("TAX differs from TLC.\nTLC:\n%s\nTAX:\n%s\nplan:\n%s",
					wantC, got, algebra.Explain(taxRes.Plan))
			}

			navOut, err := nav.Run(s, ast)
			if err != nil {
				t.Fatalf("nav eval: %v", err)
			}
			if got := canonical(s, navOut); got != wantC {
				t.Errorf("NAV differs from TLC.\nTLC:\n%s\nNAV:\n%s", wantC, got)
			}
		})
	}
}

func TestGTPPlanUsesGrouping(t *testing.T) {
	ast, err := xquery.Parse(crossQueries["q1"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := gtp.Translate(ast)
	if err != nil {
		t.Fatal(err)
	}
	exp := algebra.Explain(res.Plan)
	if !strings.Contains(exp, "GroupBy") {
		t.Errorf("GTP plan has no GroupBy:\n%s", exp)
	}
	if strings.Contains(exp, "{*}") || strings.Contains(exp, "{+}") {
		t.Errorf("GTP plan retains nested select edges:\n%s", exp)
	}
}

func TestTAXPlanShape(t *testing.T) {
	ast, err := xquery.Parse(crossQueries["q1"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := tax.Translate(ast)
	if err != nil {
		t.Fatal(err)
	}
	exp := algebra.Explain(res.Plan)
	for _, want := range []string{"GroupBy", "IdentityJoin", "Materialize"} {
		if !strings.Contains(exp, want) {
			t.Errorf("TAX plan missing %s:\n%s", want, exp)
		}
	}
	if strings.Contains(exp, "class(") {
		t.Errorf("TAX plan retains extension selects (pattern reuse):\n%s", exp)
	}
}

func TestBaselinesAreSlowerOnQ1(t *testing.T) {
	s := loadStore(t)
	ast, err := xquery.Parse(crossQueries["q1"])
	if err != nil {
		t.Fatal(err)
	}
	cost := func(res *translate.Result) store.Stats {
		s.ResetStats()
		if _, err := algebra.Run(s, res.Plan); err != nil {
			t.Fatal(err)
		}
		return s.Snapshot()
	}
	tlcRes, _ := translate.Translate(ast)
	taxRes, _ := tax.Translate(ast)
	tlcStats := cost(tlcRes)
	taxStats := cost(taxRes)
	if taxStats.NodesMaterialized <= tlcStats.NodesMaterialized {
		t.Errorf("TAX materialized %d nodes, TLC %d — early materialization not visible",
			taxStats.NodesMaterialized, tlcStats.NodesMaterialized)
	}
}

// TestValueJoinEqualityIsNumeric holds the sort–merge–sort join, the
// nested-loop join and the navigational engine to one equality: values
// that parse as numbers compare as numbers ("5", "5.0" and "05" are
// equal), a number never equals a word, and NaN equals nothing.
func TestValueJoinEqualityIsNumeric(t *testing.T) {
	s := store.New()
	if _, err := s.LoadXML("j.xml", strings.NewReader(`<j>
	  <l id="l5" v="5"/><l id="l05" v="05"/><l id="lw" v="five"/><l id="ln" v="NaN"/>
	  <r id="r50" v="5.0"/><r id="rw" v="five"/><r id="r6" v="6"/><r id="rn" v="NaN"/>
	</j>`)); err != nil {
		t.Fatal(err)
	}
	ast, err := xquery.Parse(`FOR $l IN document("j.xml")//l
		FOR $r IN document("j.xml")//r
		WHERE $l/@v = $r/@v
		RETURN <pair l={$l/@id/text()} r={$r/@id/text()}></pair>`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `<pair l="l05" r="r50"/>
<pair l="l5" r="r50"/>
<pair l="lw" r="rw"/>`
	run := func(nested bool) string {
		res, err := translate.Translate(ast)
		if err != nil {
			t.Fatal(err)
		}
		joins := 0
		for _, op := range algebra.Ops(res.Plan) {
			if j, ok := op.(*algebra.Join); ok && j.Pred != nil {
				j.ForceNestedLoop = nested
				joins++
			}
		}
		if joins != 1 {
			t.Fatalf("plan has %d value joins, want 1:\n%s", joins, algebra.Explain(res.Plan))
		}
		out, err := algebra.Run(s, res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		return canonical(s, out)
	}
	if got := run(false); got != want {
		t.Errorf("sort–merge–sort join:\n%s\nwant:\n%s", got, want)
	}
	if got := run(true); got != want {
		t.Errorf("nested-loop join:\n%s\nwant:\n%s", got, want)
	}
	navOut, err := nav.Run(s, ast)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(s, navOut); got != want {
		t.Errorf("navigation:\n%s\nwant:\n%s", got, want)
	}
}
