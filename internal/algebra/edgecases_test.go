package algebra

import (
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/store"
)

func TestSelectErrors(t *testing.T) {
	s := loadAuction(t)
	// Select without a pattern.
	if _, err := Run(s, &Select{}); err == nil {
		t.Error("pattern-less select succeeded")
	}
	// Extension select with no input.
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(5, "x"), pattern.Child, pattern.One)
	if _, err := Run(s, NewSelect(&pattern.Tree{Root: anchor})); err == nil {
		t.Error("inputless extension select succeeded")
	}
	// Document select with an input.
	bad := NewExtendSelect(personSelect(), q1APT())
	if _, err := Run(s, bad); err == nil {
		t.Error("document select with input succeeded")
	}
}

func q1APT() *pattern.Tree {
	root := pattern.NewDocRoot(0, "auction.xml")
	root.Add(pattern.NewTagNode(99, "person"), pattern.Descendant, pattern.One)
	return &pattern.Tree{Root: root}
}

func TestConstructErrors(t *testing.T) {
	s := loadAuction(t)
	if _, err := Run(s, &Construct{unary: unary{In: personSelect()}}); err == nil {
		t.Error("pattern-less construct succeeded")
	}
}

func TestAggregateErrors(t *testing.T) {
	s := loadAuction(t)
	// Unknown function.
	if _, err := Run(s, NewAggregate(personSelect(), AggFunc("median"), 1, 99)); err == nil {
		t.Error("unknown aggregate succeeded")
	}
	// Non-numeric content under sum.
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(30, "name"), pattern.Child, pattern.One)
	ext := NewExtendSelect(personSelect(), &pattern.Tree{Root: anchor})
	if _, err := Run(s, NewAggregate(ext, Sum, 30, 99)); err == nil {
		t.Error("sum over names succeeded")
	}
}

func TestFilterCompare(t *testing.T) {
	s := loadAuction(t)
	// Compare @id against itself: always true.
	eq := NewFilterCompare(personSelect(), 2, pattern.EQ, 2)
	res, err := Run(s, eq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("self-compare kept %d trees", len(res))
	}
	// Compare against an empty class: nothing passes.
	miss := NewFilterCompare(personSelect(), 2, pattern.EQ, 77)
	res, err = Run(s, miss)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty-class compare kept %d trees", len(res))
	}
}

func TestDisjFilterModes(t *testing.T) {
	s := loadAuction(t)
	// age > 35 OR age < 25 keeps Bob (20) and Carol (40).
	f := NewDisjFilter(personSelect(),
		FilterBranch{LCL: 3, Pred: pattern.Predicate{Op: pattern.GT, Value: "35"}, Mode: AtLeastOne},
		FilterBranch{LCL: 3, Pred: pattern.Predicate{Op: pattern.LT, Value: "25"}, Mode: AtLeastOne},
	)
	res, err := Run(s, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("disjunction kept %d trees, want 2", len(res))
	}
	// Every-mode disjunct over an empty class is a non-match (no vacuous
	// truth inside OR).
	f2 := NewDisjFilter(personSelect(),
		FilterBranch{LCL: 77, Pred: pattern.Predicate{Op: pattern.GT, Value: "0"}, Mode: Every})
	res, err = Run(s, f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty-class EVERY disjunct kept %d trees", len(res))
	}
}

func TestPruneRemovesClassAndNodes(t *testing.T) {
	s := loadAuction(t)
	pr := NewPrune(personSelect(), 3) // drop the age branches
	res, err := Run(s, pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res {
		if len(w.Class(3)) != 0 {
			t.Error("pruned class still populated")
		}
		p, _ := w.SingletonID(1)
		for _, k := range w.Kids(p) {
			if w.Arena().Tag(s, k) == "age" {
				t.Error("pruned node still attached")
			}
		}
	}
}

func TestIdentityJoinOp(t *testing.T) {
	s := loadAuction(t)
	// Re-match person names from the root and merge them onto the bound
	// persons — the TAX RETURN-path stitch.
	nameRoot := pattern.NewDocRoot(0, "auction.xml")
	p2 := nameRoot.Add(pattern.NewTagNode(41, "person"), pattern.Descendant, pattern.One)
	p2.Add(pattern.NewTagNode(42, "name"), pattern.Child, pattern.One)
	fresh := NewSelect(&pattern.Tree{Root: nameRoot})
	join := NewIdentityJoin(personSelect(), fresh, 1, 41)
	res, err := Run(s, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("identity join produced %d trees", len(res))
	}
	for _, w := range res {
		if len(w.Class(42)) != 1 {
			t.Errorf("merged name class = %d", len(w.Class(42)))
		}
		n := w.Class(42)[0]
		p, _ := w.SingletonID(1)
		if w.Node(n).Parent != p {
			t.Error("name not grafted under the bound person")
		}
	}
}

func TestNestAllJoin(t *testing.T) {
	s := loadAuction(t)
	j := NewCartesianJoin(personSelect(), auctionSelect(), 50)
	j.RightSpec = pattern.ZeroOrMore
	res, err := Run(s, j)
	if err != nil {
		t.Fatal(err)
	}
	// One output per person, each nesting all three auctions.
	if len(res) != 3 {
		t.Fatalf("nest-all join produced %d trees, want 3", len(res))
	}
	if got := len(res[0].Class(4)); got != 3 {
		t.Errorf("nested auctions = %d, want 3", got)
	}
}

func TestSortMissingKeysLast(t *testing.T) {
	s := store.New()
	if _, err := s.LoadXML("m.xml", strings.NewReader(
		`<r><p><v>2</v></p><p/><p><v>1</v></p></r>`)); err != nil {
		t.Fatal(err)
	}
	root := pattern.NewDocRoot(0, "m.xml")
	p := root.Add(pattern.NewTagNode(1, "p"), pattern.Child, pattern.One)
	p.Add(pattern.NewTagNode(2, "v"), pattern.Child, pattern.ZeroOrOne)
	res, err := Run(s, NewSort(NewSelect(&pattern.Tree{Root: root}), SortKey{LCL: 2}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range res {
		if m := w.Class(2); len(m) == 1 {
			got = append(got, w.Content(s, m[0]))
		} else {
			got = append(got, "-")
		}
	}
	if strings.Join(got, ",") != "1,2,-" {
		t.Errorf("sort order = %v (missing keys must sort last)", got)
	}
}

func TestOpsAndRefsCoverage(t *testing.T) {
	s := loadAuction(t)
	// Build plans touching most operators and exercise RefsOf/RemapOf on
	// every node. Flatten and Shadow each read their own Sort chain.
	sorted := func() Op {
		agg := NewAggregate(auctionSelect(), Count, 5, 11)
		fil := NewFilter(agg, 11, pattern.Predicate{Op: pattern.GT, Value: "0"}, AtLeastOne)
		return NewSort(NewDupElim(NewProject(fil, 4, 5), 4), SortKey{LCL: 4})
	}
	for _, plan := range []Op{
		NewFlatten(sorted(), 4, 5),
		NewIlluminate(NewShadow(sorted(), 4, 5), 5),
	} {
		for _, op := range Ops(plan) {
			refs := RefsOf(op)
			RemapOf(op, map[int]int{99: 98}) // no-op remap
			_ = refs
			if op.Label() == "" {
				t.Errorf("%T has empty label", op)
			}
		}
		if _, err := Run(s, plan); err != nil {
			t.Fatalf("%s: %v", plan.Label(), err)
		}
	}
}

func TestGroupByBasisErrors(t *testing.T) {
	s := loadAuction(t)
	// Basis class with several members per tree errors.
	sel := auctionSelect() // class 5 = bidder cluster (multi)
	if _, err := Run(s, NewGroupBy(sel, 5, 4)); err == nil {
		t.Error("multi-member basis succeeded")
	}
	// Empty basis class passes through.
	res, err := Run(s, NewGroupBy(auctionSelect(), 77, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("pass-through grouping = %d trees", len(res))
	}
}
