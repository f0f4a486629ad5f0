// Algebra: build TLC algebra plans by hand — annotated pattern trees,
// logical classes, nest-joins, Flatten/Shadow/Illuminate — without going
// through XQuery. This is the level at which the paper's Section 2
// operates, and the level a query optimizer would manipulate.
//
//	go run ./examples/algebra
package main

import (
	"fmt"
	"log"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
	"tlc/internal/store"
	"tlc/internal/xmark"
)

func main() {
	st := store.New()
	if _, err := st.Load(xmark.Generate("auction.xml", 0.02)); err != nil {
		log.Fatal(err)
	}

	// An annotated pattern tree (Definitions 1-2): open_auction with its
	// bidders clustered ("*" edge) and its quantity, one witness tree per
	// auction regardless of how many bidders it has — heterogeneity made
	// uniform through logical classes.
	root := pattern.NewDocRoot(1, "auction.xml")
	auction := root.Add(pattern.NewTagNode(2, "open_auction"), pattern.Descendant, pattern.One)
	auction.Add(pattern.NewTagNode(3, "bidder"), pattern.Child, pattern.ZeroOrMore)
	auction.Add(pattern.NewTagNode(4, "quantity"), pattern.Child, pattern.One)
	apt := &pattern.Tree{Root: root}
	fmt.Println("annotated pattern tree:")
	fmt.Print(apt)

	// Plan: match, count the bidder class per tree, keep busy auctions,
	// construct a summary element.
	sel := algebra.NewSelect(apt)
	agg := algebra.NewAggregate(sel, algebra.Count, 3, 5)
	filt := algebra.NewFilter(agg, 5, pattern.Predicate{Op: pattern.GT, Value: "5"}, algebra.AtLeastOne)
	cons := algebra.NewConstruct(filt, func() *pattern.ConstructNode {
		el := pattern.NewElement("busy",
			pattern.NewElement("bids", &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: 5}),
			pattern.NewElement("qty", &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: 4}),
		)
		return el
	}())

	fmt.Println("\nplan:")
	fmt.Print(algebra.Explain(cons))

	out, err := algebra.Run(st, cons)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d busy auctions; first three:\n", len(out))
	for i, t := range out {
		if i == 3 {
			break
		}
		fmt.Println(" ", t.XML(st))
	}

	// Flatten (Definition 5): break the clustered bidders apart again —
	// one tree per (auction, bidder) pair.
	fl := algebra.NewFlatten(filt, 2, 3)
	flat, err := algebra.Run(st, fl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFlatten(auction, bidder) turns %d clustered trees into %d flat trees\n",
		len(out), len(flat))

	// Shadow retains the suppressed siblings invisibly; Illuminate brings
	// them back (Definitions 6-7).
	sh := algebra.NewShadow(filt, 2, 3)
	shadowed, err := algebra.Run(st, sh)
	if err != nil {
		log.Fatal(err)
	}
	lit, err := algebra.Run(st, algebra.NewIlluminate(algebra.NewShadow(filt, 2, 3), 3))
	if err != nil {
		log.Fatal(err)
	}
	active := len(shadowed[0].Class(3))
	total := len(lit[0].Class(3))
	fmt.Printf("Shadow leaves %d active bidder per tree; Illuminate restores all %d\n",
		active, total)

	// Logical classes survive across operators: project down to the
	// quantity class and read it from a heterogeneous set uniformly.
	proj := algebra.NewProject(filt, 2, 4)
	pres, err := algebra.Run(st, proj)
	if err != nil {
		log.Fatal(err)
	}
	var quantities []string
	for _, t := range pres {
		n, err := t.SingletonID(4)
		if err != nil {
			log.Fatal(err)
		}
		quantities = append(quantities, t.Content(st, n))
	}
	fmt.Printf("quantities of busy auctions via class (4): %v\n", quantities)
}
