package planner

import (
	"fmt"
	"sort"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
)

// --- Pass 1: pattern-match edge ordering -----------------------------------
//
// The matcher evaluates a pattern node's edges left to right, and a "-"
// edge multiplies the partial witnesses — every later edge then pays per
// multiplied partial (Section 5.2 defers exactly this ordering to an
// optimizer). Edges are sorted by
//
//  1. selectivity class: predicated flat edges first (they prune parents
//     early and multiply least), then unpredicated flat edges, then nested
//     edges;
//  2. within a class, ascending estimated branch cardinality from the
//     catalog, across every document the pattern can read.
//
// Edge order only changes evaluation order and the order of matched kids,
// never the witness set, so correctness is unaffected.

func orderEdges(root algebra.Op, est *estimator) int {
	reordered := 0
	for _, op := range algebra.Ops(root) {
		sel, ok := op.(*algebra.Select)
		if !ok || sel.APT == nil || sel.APT.Root == nil {
			continue
		}
		docs := est.selectDocs(sel)
		for _, n := range sel.APT.Nodes() {
			if len(n.Edges) < 2 {
				continue
			}
			before := edgeOrderKey(n.Edges)
			sort.SliceStable(n.Edges, func(i, j int) bool {
				ci, cj := edgeClass(n.Edges[i]), edgeClass(n.Edges[j])
				if ci != cj {
					return ci < cj
				}
				// Keep OR-group members adjacent so the matcher's one-pass
				// group evaluation sees them as a unit.
				if gi, gj := n.Edges[i].Group, n.Edges[j].Group; gi != gj {
					return gi < gj
				}
				return est.branchCard(docs, n.Edges[i].To) < est.branchCard(docs, n.Edges[j].To)
			})
			if edgeOrderKey(n.Edges) != before {
				reordered++
			}
		}
	}
	return reordered
}

// edgeClass ranks edges: 0 = flat with a predicate somewhere in the
// branch, 1 = logical existence tests (OR groups, NOT anti-joins — they
// prune parents and never multiply partials), 2 = flat, 3 = nested.
func edgeClass(e pattern.Edge) int {
	if e.Logical() {
		return 1
	}
	if e.Spec.Nested() {
		return 3
	}
	if branchHasPredicate(e.To) {
		return 0
	}
	return 2
}

func branchHasPredicate(n *pattern.Node) bool {
	if n.Pred != nil {
		return true
	}
	for _, e := range n.Edges {
		if branchHasPredicate(e.To) {
			return true
		}
	}
	return false
}

func edgeOrderKey(edges []pattern.Edge) string {
	key := ""
	for _, e := range edges {
		if e.Not {
			key += "!"
		}
		if e.Group != 0 {
			key += fmt.Sprintf("g%d:", e.Group)
		}
		key += e.To.Tag + e.Spec.String() + "|"
	}
	return key
}

// --- Pass 2: predicate ordering in filter chains ---------------------------
//
// Consecutive per-tree filters (Filter, DisjFilter, FilterCompare) commute:
// each keeps an order-preserving subset of its input. Executing the most
// selective predicate first shrinks the sequence every later filter scans,
// so chains are reordered ascending by estimated selectivity bottom-up.
// Only chains whose interior links have a single consumer are touched — a
// filter feeding two consumers is a DAG interface that must keep its
// output.

func isFilterOp(op algebra.Op) bool {
	switch op.(type) {
	case *algebra.Filter, *algebra.DisjFilter, *algebra.FilterCompare:
		return true
	}
	return false
}

// filterOpSel is the estimated pass fraction of one filter operator.
func (e *estimator) filterOpSel(op algebra.Op) float64 {
	switch o := op.(type) {
	case *algebra.Filter:
		li := e.lcls[o.LCL]
		return e.predSel(li.docs, li.tag, &o.Pred)
	case *algebra.DisjFilter:
		fail := 1.0
		for i := range o.Branches {
			fail *= 1 - e.branchSel(&o.Branches[i])
		}
		return 1 - fail
	case *algebra.FilterCompare:
		return e.compareSel(o.LLCL, o.Op, o.RLCL)
	}
	return 1
}

func setFilterIn(op, in algebra.Op) {
	switch f := op.(type) {
	case *algebra.Filter:
		f.In = in
	case *algebra.DisjFilter:
		f.In = in
	case *algebra.FilterCompare:
		f.In = in
	}
}

func reorderFilterChains(root algebra.Op, est *estimator) (algebra.Op, int) {
	fanout := make(map[algebra.Op]int)
	parents := make(map[algebra.Op][]algebra.Op)
	ops := algebra.Ops(root)
	for _, o := range ops {
		for _, in := range o.Inputs() {
			fanout[in]++
			parents[in] = append(parents[in], o)
		}
	}

	changed := 0
	for _, top := range ops {
		if !isFilterOp(top) {
			continue
		}
		// Chain tops only: a filter with a filter consumer is interior.
		interior := false
		for _, p := range parents[top] {
			if isFilterOp(p) {
				interior = true
				break
			}
		}
		if interior {
			continue
		}
		// Walk down through single-consumer filter links.
		chain := []algebra.Op{top}
		cur := top
		for {
			in := cur.Inputs()[0]
			if !isFilterOp(in) || fanout[in] != 1 {
				break
			}
			chain = append(chain, in)
			cur = in
		}
		if len(chain) < 2 {
			continue
		}
		base := chain[len(chain)-1].Inputs()[0]

		// Desired order, top to bottom: descending selectivity, so the most
		// selective filter sits at the bottom and runs first.
		desired := append([]algebra.Op(nil), chain...)
		sort.SliceStable(desired, func(i, j int) bool {
			return est.filterOpSel(desired[i]) > est.filterOpSel(desired[j])
		})
		same := true
		for i := range chain {
			if chain[i] != desired[i] {
				same = false
				break
			}
		}
		if same {
			continue
		}
		changed++
		for i := 0; i < len(desired)-1; i++ {
			setFilterIn(desired[i], desired[i+1])
		}
		setFilterIn(desired[len(desired)-1], base)
		newTop := desired[0]
		if top == root {
			root = newTop
		}
		for _, p := range parents[top] {
			algebra.ReplaceInput(p, top, newTop)
		}
	}
	return root, changed
}

// reorderDisjBranches orders each DisjFilter's disjuncts by descending
// estimated pass probability: the OR short-circuits on the first holding
// branch, so likely branches first minimize the branches examined per
// tree. The tree set and output order are unchanged.
func reorderDisjBranches(root algebra.Op, est *estimator) int {
	changed := 0
	for _, op := range algebra.Ops(root) {
		d, ok := op.(*algebra.DisjFilter)
		if !ok || len(d.Branches) < 2 {
			continue
		}
		before := branchOrderKey(d.Branches)
		sort.SliceStable(d.Branches, func(i, j int) bool {
			return est.branchSel(&d.Branches[i]) > est.branchSel(&d.Branches[j])
		})
		if branchOrderKey(d.Branches) != before {
			changed++
		}
	}
	return changed
}

func branchOrderKey(branches []algebra.FilterBranch) string {
	key := ""
	for _, b := range branches {
		key += b.Mode.String() + b.Pred.String() + "|"
	}
	return key
}

// --- Pass 3: value-join algorithm selection --------------------------------
//
// Equality value joins have two physical algorithms (Section 5.1): the
// sort–merge–sort join — sort both sides by join value, merge, re-sort the
// output into sequence order — and the nested loop. In comparison units,
// the nested loop costs l·r; the merge join costs l + 2r (each side
// grouped once, the right side's groups also re-emitted) plus a constant
// setup for its group table. Tiny inputs therefore go nested-loop, real
// inputs merge. Non-equality predicates always run the loop (the merge
// join requires equality groups).

const smsSetupCost = 64

func chooseJoins(root algebra.Op, est *estimator, info *Info) {
	for _, op := range algebra.Ops(root) {
		j, ok := op.(*algebra.Join)
		if !ok || j.Pred == nil || j.Pred.Op != pattern.EQ {
			continue
		}
		ins := j.Inputs()
		l, r := est.estimate(ins[0]), est.estimate(ins[1])
		costNL := l * r
		costSMS := l + 2*r + smsSetupCost
		j.ForceNestedLoop = costNL < costSMS
		if j.ForceNestedLoop {
			info.NestedLoopJoins++
		} else {
			info.MergeJoins++
		}
	}
}
