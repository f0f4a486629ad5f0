package algebra

import (
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

const auctionXML = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>20</age></person>
    <person id="p2"><name>Carol</name><age>40</age></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3</increase></bidder>
      <bidder><personref person="p2"/><increase>5</increase></bidder>
      <bidder><personref person="p0"/><increase>7</increase></bidder>
      <quantity>2</quantity>
    </open_auction>
    <open_auction id="a1">
      <bidder><personref person="p2"/><increase>1</increase></bidder>
      <quantity>5</quantity>
    </open_auction>
    <open_auction id="a2">
      <quantity>1</quantity>
    </open_auction>
  </open_auctions>
</site>`

func loadAuction(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	if _, err := s.LoadXML("auction.xml", strings.NewReader(auctionXML)); err != nil {
		t.Fatal(err)
	}
	return s
}

// personSelect builds Select: doc_root//person[1] with @id[2] and age[3].
func personSelect() *Select {
	root := pattern.NewDocRoot(0, "auction.xml")
	p := root.Add(pattern.NewTagNode(1, "person"), pattern.Descendant, pattern.One)
	p.Add(pattern.NewTagNode(2, "@id"), pattern.Child, pattern.One)
	p.Add(pattern.NewTagNode(3, "age"), pattern.Child, pattern.One)
	return NewSelect(&pattern.Tree{Root: root})
}

// auctionSelect builds Select: doc_root//open_auction[4] with bidder{*}[5]
// and bidder//@person via a second bidder branch [6]->[7] (flat), matching
// the Selection 2 shape of Figure 7.
func auctionSelect() *Select {
	root := pattern.NewDocRoot(0, "auction.xml")
	a := root.Add(pattern.NewTagNode(4, "open_auction"), pattern.Descendant, pattern.One)
	a.Add(pattern.NewTagNode(5, "bidder"), pattern.Child, pattern.ZeroOrMore)
	return NewSelect(&pattern.Tree{Root: root})
}

func TestSelectDocument(t *testing.T) {
	s := loadAuction(t)
	res, err := Run(s, personSelect())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d persons, want 3", len(res))
	}
	for _, w := range res {
		if _, err := w.Singleton(2); err != nil {
			t.Errorf("witness missing @id: %v", err)
		}
	}
}

func TestFilterModes(t *testing.T) {
	s := loadAuction(t)
	sel := auctionSelect()
	base, err := Run(s, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 3 {
		t.Fatalf("%d auctions, want 3", len(base))
	}
	// Extend with increase values per bidder cluster.
	anchor := pattern.NewLCAnchor(0, 5)
	anchor.Add(pattern.NewTagNode(8, "increase"), pattern.Child, pattern.One)
	ext := NewExtendSelect(sel, &pattern.Tree{Root: anchor})

	cases := []struct {
		mode FilterMode
		pred pattern.Predicate
		want int
	}{
		// increase > 2 for all bidders: a1 fails (increase 1), a2 passes
		// vacuously (no bidders), a0 passes (3,5,7).
		{Every, pattern.Predicate{Op: pattern.GT, Value: "2"}, 2},
		// at least one increase > 4: a0 only.
		{AtLeastOne, pattern.Predicate{Op: pattern.GT, Value: "4"}, 1},
		// exactly one increase > 4: a0 (only 5 and 7... two) -> 0; use > 6.
		{ExactlyOne, pattern.Predicate{Op: pattern.GT, Value: "6"}, 1},
	}
	for _, c := range cases {
		res, err := Run(s, NewFilter(ext, 8, c.pred, c.mode))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != c.want {
			t.Errorf("filter %s %s: %d trees, want %d", c.mode, c.pred.String(), len(res), c.want)
		}
	}
}

func TestAggregateCountAndFilter(t *testing.T) {
	s := loadAuction(t)
	agg := NewAggregate(auctionSelect(), Count, 5, 11)
	res, err := Run(s, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d trees", len(res))
	}
	var counts []string
	for _, w := range res {
		n, err := w.SingletonID(11)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, w.Content(s, n))
		// The result node is a sibling of the bidders (child of auction)
		// or under the root for the empty cluster.
		if w.Node(n).Parent == seq.NoNode {
			t.Error("aggregate node not attached")
		}
	}
	if strings.Join(counts, ",") != "3,1,0" {
		t.Errorf("counts = %v", counts)
	}
	// Filter count > 2: only a0.
	fl, err := Run(s, NewFilter(NewAggregate(auctionSelect(), Count, 5, 11), 11,
		pattern.Predicate{Op: pattern.GT, Value: "2"}, AtLeastOne))
	if err != nil {
		t.Fatal(err)
	}
	if len(fl) != 1 {
		t.Errorf("count>2 keeps %d trees, want 1", len(fl))
	}
}

func TestAggregateNumericFunctions(t *testing.T) {
	s := loadAuction(t)
	anchor := pattern.NewLCAnchor(0, 5)
	anchor.Add(pattern.NewTagNode(8, "increase"), pattern.Child, pattern.One)
	ext := NewExtendSelect(auctionSelect(), &pattern.Tree{Root: anchor})
	for fn, wants := range map[AggFunc][]string{
		Sum: {"15", "1", "empty"},
		Avg: {"5", "1", "empty"},
		Min: {"3", "1", "empty"},
		Max: {"7", "1", "empty"},
	} {
		res, err := Run(s, NewAggregate(ext, fn, 8, 12))
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		var got []string
		for _, w := range res {
			n, _ := w.SingletonID(12)
			got = append(got, w.Content(s, n))
		}
		if strings.Join(got, ",") != strings.Join(wants, ",") {
			t.Errorf("%s = %v, want %v", fn, got, wants)
		}
	}
}

func TestValueJoinPlan(t *testing.T) {
	s := loadAuction(t)
	// person @id = bidder//@person, nest right.
	// Use a flat auction select for the right side: auction[4]/bidder[6]/personref/@person[7].
	root := pattern.NewDocRoot(0, "auction.xml")
	a := root.Add(pattern.NewTagNode(4, "open_auction"), pattern.Descendant, pattern.One)
	b := a.Add(pattern.NewTagNode(6, "bidder"), pattern.Child, pattern.One)
	b.Add(pattern.NewTagNode(7, "@person"), pattern.Descendant, pattern.One)
	right := NewSelect(&pattern.Tree{Root: root})
	join := NewValueJoin(personSelect(), right, JoinPred{LeftLCL: 2, Op: pattern.EQ, RightLCL: 7}, pattern.One, 9)
	res, err := Run(s, join)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: p0 x 2 (a0 twice), p2 x 2 (a0, a1).
	if len(res) != 4 {
		t.Fatalf("%d joined trees, want 4", len(res))
	}
}

func TestProjectKeepsSubtreesAndClasses(t *testing.T) {
	s := loadAuction(t)
	// Rewrites may list a kept label twice; it is still kept once.
	res, err := Run(s, NewProject(personSelect(), 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d trees", len(res))
	}
	w := res[0]
	// Root retained, person under it, @id under person (witness subtree).
	if w.Arena().Tag(s, w.Root) != "site" {
		t.Errorf("projected root = %q", w.Arena().Tag(s, w.Root))
	}
	p, err := w.Singleton(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Parent != w.Root {
		t.Error("person not promoted under root")
	}
	if _, err := w.Singleton(2); err != nil {
		t.Errorf("@id class lost: %v", err)
	}
	// The age class (3) was projected away.
	if len(w.Class(3)) != 0 {
		t.Error("age class survived projection")
	}
}

func TestDupElim(t *testing.T) {
	s := loadAuction(t)
	// Join multiplies persons; DE on person brings them back to unique.
	root := pattern.NewDocRoot(0, "auction.xml")
	a := root.Add(pattern.NewTagNode(4, "open_auction"), pattern.Descendant, pattern.One)
	b := a.Add(pattern.NewTagNode(6, "bidder"), pattern.Child, pattern.One)
	b.Add(pattern.NewTagNode(7, "@person"), pattern.Descendant, pattern.One)
	right := NewSelect(&pattern.Tree{Root: root})
	join := NewValueJoin(personSelect(), right, JoinPred{LeftLCL: 2, Op: pattern.EQ, RightLCL: 7}, pattern.One, 9)
	de := NewDupElim(join, 1)
	res, err := Run(s, de)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("DE left %d trees, want 2 (p0, p2)", len(res))
	}
	// More classes than one seen-set entry holds: the keys fold, and a
	// class past the fold still tells trees apart.
	folded, err := Run(s, NewDupElim(join, 1, 1, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != 2 {
		t.Errorf("DE on (1) five times left %d trees, want 2", len(folded))
	}
	joined, err := Run(s, join)
	if err != nil {
		t.Fatal(err)
	}
	apart, err := Run(s, NewDupElim(join, 1, 1, 1, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(apart) != len(joined) {
		t.Errorf("DE on (1) four times and the join root left %d trees, want all %d", len(apart), len(joined))
	}
}

func TestConstruct(t *testing.T) {
	s := loadAuction(t)
	// <person name={name.text()}>{bidder subtrees}</person> over a join of
	// persons and auctions — simplified Q1 RETURN.
	sel := personSelect()
	anchor := pattern.NewLCAnchor(0, 1)
	anchor.Add(pattern.NewTagNode(12, "name"), pattern.Child, pattern.One)
	withName := NewExtendSelect(sel, &pattern.Tree{Root: anchor})
	pat := pattern.NewElement("person")
	pat.Attrs = []pattern.ConstructAttr{{Tag: "@name", FromLCL: 12}}
	pat.NewLCL = 15
	res, err := Run(s, NewConstruct(withName, pat))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d constructed trees", len(res))
	}
	xml := res[0].XML(s)
	if xml != `<person name="Alice"/>` {
		t.Errorf("constructed XML = %s", xml)
	}
	if len(res[0].Class(15)) != 1 {
		t.Error("construct root not classified")
	}
}

func TestConstructSubtreeAndText(t *testing.T) {
	s := loadAuction(t)
	sel := auctionSelect()
	anchor := pattern.NewLCAnchor(0, 4)
	anchor.Add(pattern.NewTagNode(13, "quantity"), pattern.Child, pattern.One)
	ext := NewExtendSelect(sel, &pattern.Tree{Root: anchor})
	pat := pattern.NewElement("myauction",
		&pattern.ConstructNode{Kind: pattern.ConstructSubtree, FromLCL: 5},
		pattern.NewElement("myquan", &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: 13}),
	)
	res, err := Run(s, NewConstruct(ext, pat))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d trees", len(res))
	}
	xml0 := res[0].XML(s)
	if strings.Count(xml0, "<bidder>") != 3 || !strings.Contains(xml0, "<myquan>2</myquan>") {
		t.Errorf("xml0 = %s", xml0)
	}
	xml2 := res[2].XML(s)
	if strings.Contains(xml2, "<bidder>") || !strings.Contains(xml2, "<myquan>1</myquan>") {
		t.Errorf("xml2 = %s", xml2)
	}
}

// TestConstructCarriesInnerLabelsOnEveryTree nests one Construct in
// another: the inner one builds <p><n>age</n></p> per person with <n> in
// class 21, and the outer one references the <p> subtrees. Every output
// tree, not only the first, must carry class 21 onto its own copy of <n>,
// whether the subtree is moved (one reference) or copied (two).
func TestConstructCarriesInnerLabelsOnEveryTree(t *testing.T) {
	s := loadAuction(t)
	for _, refs := range []int{1, 2} {
		n := pattern.NewElement("n", &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: 3})
		n.NewLCL = 21
		p := pattern.NewElement("p", n)
		p.NewLCL = 20
		inner := NewConstruct(personSelect(), p)
		out := pattern.NewElement("out")
		for range refs {
			out.Children = append(out.Children, &pattern.ConstructNode{Kind: pattern.ConstructSubtree, FromLCL: 20})
		}
		res, err := Run(s, NewConstruct(inner, out))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 {
			t.Fatalf("refs %d: %d trees, want 3", refs, len(res))
		}
		for i, w := range res {
			got := w.Class(21)
			if len(got) != refs {
				t.Errorf("refs %d, tree %d: class 21 has %d members, want %d (%s)", refs, i, len(got), refs, w.XML(s))
				continue
			}
			for _, m := range got {
				if p := w.Node(m).Parent; w.Arena().Tag(s, m) != "n" || p == seq.NoNode || w.Node(p).Parent != w.Root {
					t.Errorf("refs %d, tree %d: class 21 member %q is not an <n> of this tree", refs, i, w.Arena().Tag(s, m))
				}
			}
		}
	}
}

func TestSortByContentAndDocOrder(t *testing.T) {
	s := loadAuction(t)
	res, err := Run(s, NewSort(personSelect(), SortKey{LCL: 3}))
	if err != nil {
		t.Fatal(err)
	}
	var ages []string
	for _, w := range res {
		n, _ := w.SingletonID(3)
		ages = append(ages, w.Content(s, n))
	}
	if strings.Join(ages, ",") != "20,30,40" {
		t.Errorf("ascending ages = %v", ages)
	}
	res, err = Run(s, NewSort(personSelect(), SortKey{LCL: 3, Descending: true}))
	if err != nil {
		t.Fatal(err)
	}
	ages = nil
	for _, w := range res {
		n, _ := w.SingletonID(3)
		ages = append(ages, w.Content(s, n))
	}
	if strings.Join(ages, ",") != "40,30,20" {
		t.Errorf("descending ages = %v", ages)
	}
}

// TestFlattenFigure9 reproduces the Figure 9 example: a nested tree with
// E class {E1,E2} and A class {A1,A2} under B1 flattens to two trees by
// FL[B,E], then to four by FL[B,A].
func TestFlattenFigure9(t *testing.T) {
	s := store.New()
	if _, err := s.LoadXML("f9.xml", strings.NewReader(`<B><E>1</E><E>2</E><A>x</A><A>y</A></B>`)); err != nil {
		t.Fatal(err)
	}
	root := pattern.NewDocRoot(1, "f9.xml")
	root.Add(pattern.NewTagNode(2, "E"), pattern.Child, pattern.OneOrMore)
	root.Add(pattern.NewTagNode(3, "A"), pattern.Child, pattern.OneOrMore)
	sel := NewSelect(&pattern.Tree{Root: root})
	flE := NewFlatten(sel, 1, 2)
	resB, err := Run(s, flE)
	if err != nil {
		t.Fatal(err)
	}
	if len(resB) != 2 {
		t.Fatalf("FL[B,E]: %d trees, want 2", len(resB))
	}
	for _, w := range resB {
		if len(w.Class(2)) != 1 || len(w.Class(3)) != 2 {
			t.Errorf("FL[B,E] classes: E=%d A=%d", len(w.Class(2)), len(w.Class(3)))
		}
	}
	flA := NewFlatten(flE, 1, 3)
	resC, err := Run(s, flA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resC) != 4 {
		t.Fatalf("FL[B,A]: %d trees, want 4", len(resC))
	}
	for _, w := range resC {
		if len(w.Class(2)) != 1 || len(w.Class(3)) != 1 {
			t.Errorf("FL[B,A] classes: E=%d A=%d", len(w.Class(2)), len(w.Class(3)))
		}
	}
}

// TestShadowFigure11 contrasts Flatten and Shadow on the Figure 11 input:
// B1 with A1,A2,A3. Both yield three trees; Shadow keeps the suppressed
// nodes in the class, invisible, and Illuminate brings them back.
func TestShadowFigure11(t *testing.T) {
	s := store.New()
	if _, err := s.LoadXML("f11.xml", strings.NewReader(`<B><A>1</A><A>2</A><A>3</A></B>`)); err != nil {
		t.Fatal(err)
	}
	root := pattern.NewDocRoot(1, "f11.xml")
	root.Add(pattern.NewTagNode(2, "A"), pattern.Child, pattern.OneOrMore)
	sel := NewSelect(&pattern.Tree{Root: root})

	flat, err := Run(s, NewFlatten(sel, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	shadowOp := NewShadow(sel, 1, 2)
	shad, err := Run(s, shadowOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 3 || len(shad) != 3 {
		t.Fatalf("flatten %d, shadow %d trees; want 3 each", len(flat), len(shad))
	}
	// Flatten dropped the other As entirely; shadow retained them.
	if got := len(flat[0].ClassAll(2)); got != 1 {
		t.Errorf("flatten retains %d A members", got)
	}
	if got := len(shad[0].ClassAll(2)); got != 3 {
		t.Errorf("shadow retains %d A members, want 3", got)
	}
	if got := len(shad[0].Class(2)); got != 1 {
		t.Errorf("shadow active A members = %d, want 1", got)
	}
	// Serialization of a materialized tree hides shadowed nodes. (An
	// unmaterialized store reference serializes the authoritative stored
	// subtree, so the shadow check needs the expanded form.)
	shadMat, err := Run(s, NewShadow(NewMaterialize(sel, 1), 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if xml := shadMat[0].XML(s); strings.Count(xml, "<A>") != 1 {
		t.Errorf("shadowed XML = %s", xml)
	}
	// Illuminate re-activates.
	lit, err := Run(s, NewIlluminate(NewShadow(sel, 1, 2), 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(lit[0].Class(2)); got != 3 {
		t.Errorf("after illuminate active A members = %d, want 3", got)
	}
}

func TestMaterializeOp(t *testing.T) {
	s := loadAuction(t)
	s.ResetStats()
	res, err := Run(s, NewMaterialize(personSelect(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().NodesMaterialized == 0 {
		t.Error("materialize copied nothing")
	}
	p, _ := res[0].SingletonID(1)
	if kids := res[0].Kids(p); !res[0].Node(p).Full || len(kids) != 3 {
		t.Errorf("person not fully materialized: full=%v kids=%d", res[0].Node(p).Full, len(kids))
	}
}

func TestExplain(t *testing.T) {
	s := loadAuction(t)
	_ = s
	plan := NewFilter(NewAggregate(auctionSelect(), Count, 5, 11), 11,
		pattern.Predicate{Op: pattern.GT, Value: "5"}, AtLeastOne)
	out := Explain(plan)
	for _, want := range []string{"Filter: ALO (11)>5", "Aggregate: count((5)) -> new (11)", "Select", "doc_root(auction.xml)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}
