package planner

import (
	"math"
	"strings"
	"testing"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
	"tlc/internal/store"
	"tlc/internal/translate"
	"tlc/internal/xquery"
)

const testAuction = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>20</age></person>
    <person id="p2"><name>Carol</name><age>40</age></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3</increase></bidder>
      <bidder><personref person="p2"/><increase>4</increase></bidder>
      <bidder><personref person="p0"/><increase>5</increase></bidder>
      <quantity>2</quantity>
    </open_auction>
    <open_auction id="a1">
      <bidder><personref person="p2"/><increase>1</increase></bidder>
      <quantity>5</quantity>
    </open_auction>
    <open_auction id="a2"><quantity>1</quantity></open_auction>
  </open_auctions>
</site>`

func loadStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	if _, err := s.LoadXML("auction.xml", strings.NewReader(testAuction)); err != nil {
		t.Fatal(err)
	}
	return s
}

func buildPlan(t *testing.T, q string) algebra.Op {
	t.Helper()
	ast, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := translate.Translate(ast)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

// TestEstimatesFiniteAndPresent: after planning, every operator of the
// plan carries a finite, non-negative cardinality estimate.
func TestEstimatesFiniteAndPresent(t *testing.T) {
	s := loadStore(t)
	queries := []string{
		`FOR $p IN document("auction.xml")//person WHERE $p/age > 25 RETURN $p/name`,
		`FOR $o IN document("auction.xml")//open_auction RETURN <bids>{count($o/bidder)}</bids>`,
		`FOR $p IN document("auction.xml")//person
		 FOR $o IN document("auction.xml")//open_auction
		 WHERE $p/@id = $o/bidder//@person
		 RETURN <hit>{$p/name/text()}</hit>`,
	}
	for _, q := range queries {
		plan := buildPlan(t, q)
		plan, info := Plan(plan, s, Options{})
		for _, op := range algebra.Ops(plan) {
			e, ok := info.Estimate(op)
			if !ok {
				t.Errorf("no estimate for %q", strings.Split(op.Label(), "\n")[0])
				continue
			}
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				t.Errorf("estimate for %q = %v, want finite non-negative",
					strings.Split(op.Label(), "\n")[0], e)
			}
			if info.Annotate(op) == "" {
				t.Errorf("empty annotation for estimated op %q", strings.Split(op.Label(), "\n")[0])
			}
		}
	}
}

// TestSelectEstimateOrderOfMagnitude: the doc-rooted person select should
// estimate close to the three stored persons, not collapse to 0 or explode.
func TestSelectEstimateOrderOfMagnitude(t *testing.T) {
	s := loadStore(t)
	plan := buildPlan(t, `FOR $p IN document("auction.xml")//person RETURN $p/name`)
	plan, info := Plan(plan, s, Options{})
	root := plan
	e, ok := info.Estimate(root)
	if !ok {
		t.Fatal("no estimate for plan root")
	}
	if e < 1 || e > 9 {
		t.Errorf("root estimate = %g, want within [1, 9] (3 persons stored)", e)
	}
}

// TestJoinChoiceCosted: on a store this small, the nested loop beats the
// sort–merge–sort setup cost and the planner must pick it.
func TestJoinChoiceCosted(t *testing.T) {
	s := loadStore(t)
	q := `FOR $p IN document("auction.xml")//person
	      FOR $o IN document("auction.xml")//open_auction
	      WHERE $p/@id = $o/bidder//@person
	      RETURN <hit>{$p/name/text()}</hit>`

	joinsOf := func(root algebra.Op) []*algebra.Join {
		var out []*algebra.Join
		for _, op := range algebra.Ops(root) {
			if j, ok := op.(*algebra.Join); ok && j.Pred != nil {
				out = append(out, j)
			}
		}
		return out
	}

	plan := buildPlan(t, q)
	plan, info := Plan(plan, s, Options{})
	joins := joinsOf(plan)
	if len(joins) == 0 {
		t.Fatal("no value join in plan")
	}
	if info.NestedLoopJoins+info.MergeJoins != len(joins) {
		t.Errorf("join decisions %d+%d, want %d",
			info.NestedLoopJoins, info.MergeJoins, len(joins))
	}
	for _, j := range joins {
		if !j.ForceNestedLoop {
			t.Errorf("tiny join not costed to nested loop: %s", j.Label())
		}
	}
}

// TestFilterChainReorder: a chain of two commuting filters must come out
// with the more selective one at the bottom (executed first), and the
// reordered plan must produce exactly the trees of the original.
func TestFilterChainReorder(t *testing.T) {
	s := loadStore(t)

	build := func() (algebra.Op, *algebra.Filter, *algebra.Filter) {
		apt := &pattern.Tree{Root: pattern.NewDocRoot(1, "auction.xml")}
		person := apt.Root.Add(pattern.NewTagNode(2, "person"), pattern.Descendant, pattern.One)
		person.Add(pattern.NewTagNode(3, "age"), pattern.Child, pattern.One)
		base := algebra.NewSelect(apt)
		// Bottom: NE (passes 2 of 3 distinct ages). Top: EQ (passes 1 of 3).
		weak := algebra.NewFilter(base, 3, pattern.Predicate{Op: pattern.NE, Value: "30"}, algebra.AtLeastOne)
		strong := algebra.NewFilter(weak, 3, pattern.Predicate{Op: pattern.EQ, Value: "20"}, algebra.AtLeastOne)
		return strong, strong, weak
	}

	before, _, _ := build()
	wantOut, err := algebra.Run(s, before)
	if err != nil {
		t.Fatal(err)
	}

	root, strong, weak := build()
	root, info := Plan(root, s, Options{})
	if info.FiltersReordered != 1 {
		t.Errorf("FiltersReordered = %d, want 1", info.FiltersReordered)
	}
	if root != weak {
		t.Errorf("plan root = %s, want the weak filter on top", root.Label())
	}
	if _, ok := strong.Inputs()[0].(*algebra.Select); !ok {
		t.Errorf("strong filter's input = %s, want the base select", strong.Inputs()[0].Label())
	}
	gotOut, err := algebra.Run(s, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOut) != len(wantOut) {
		t.Fatalf("reordered chain returns %d trees, want %d", len(gotOut), len(wantOut))
	}
}

// TestDisjBranchReorder: disjuncts are tried most-likely-first so the OR
// short-circuits early; the branch set itself is unchanged.
func TestDisjBranchReorder(t *testing.T) {
	s := loadStore(t)
	apt := &pattern.Tree{Root: pattern.NewDocRoot(1, "auction.xml")}
	person := apt.Root.Add(pattern.NewTagNode(2, "person"), pattern.Descendant, pattern.One)
	person.Add(pattern.NewTagNode(3, "age"), pattern.Child, pattern.ZeroOrOne)
	base := algebra.NewSelect(apt)
	d := algebra.NewDisjFilter(base,
		algebra.FilterBranch{LCL: 3, Pred: pattern.Predicate{Op: pattern.EQ, Value: "20"}, Mode: algebra.AtLeastOne},
		algebra.FilterBranch{LCL: 3, Pred: pattern.Predicate{Op: pattern.NE, Value: "20"}, Mode: algebra.AtLeastOne},
	)
	root, info := Plan(d, s, Options{})
	if info.BranchesReordered != 1 {
		t.Errorf("BranchesReordered = %d, want 1", info.BranchesReordered)
	}
	dd := root.(*algebra.DisjFilter)
	if dd.Branches[0].Pred.Op != pattern.NE {
		t.Errorf("first branch = %s, want the likely NE disjunct", dd.Branches[0].Pred.String())
	}
	if len(dd.Branches) != 2 {
		t.Errorf("branch count changed: %d", len(dd.Branches))
	}
}

// TestFormatEst pins the deterministic estimate rendering golden plans
// depend on.
func TestFormatEst(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {3, "3"}, {2.5, "2.5"}, {99.94, "99.9"}, {100.2, "100"}, {12345, "12345"},
	} {
		if got := FormatEst(tc.in); got != tc.want {
			t.Errorf("FormatEst(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
