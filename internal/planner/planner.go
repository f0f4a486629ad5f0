// Package planner is the cost-based optimizer layer: it separates what a
// plan computes (the algebra DAG the translators emit) from how it is
// executed. Section 5.2 of the paper defers structural-join ordering "to
// an optimizer"; this package is that optimizer, centralizing every
// physical decision the codebase previously made ad hoc:
//
//   - pattern-match edge ordering for all engines (previously
//     rewrite.OrderEdges, applied only to TLCOpt);
//   - equality value-join algorithm selection, sort–merge–sort vs
//     nested-loop (previously the hardcoded JoinSpec.ForceNestedLoop
//     ablation flag);
//   - predicate ordering in Filter/DisjFilter chains (previously query
//     order).
//
// Decisions are driven by bottom-up cardinality estimation over the
// operator DAG, fed by the load-time statistics catalog (store.Catalog).
// Every planned operator carries an estimated output cardinality, exposed
// through Info so EXPLAIN can print est=N per node and PROFILE can report
// estimated vs actual with a Q-error column.
package planner

import (
	"fmt"

	"tlc/internal/algebra"
	"tlc/internal/store"
)

// Options configures a planning pass. There is nothing left to configure:
// the type remains a parameter of Plan because the repository benchmark
// (bench/, not part of this module's build) constructs it.
type Options struct{}

// Info reports what the planner did and what it expects, keyed by operator
// identity so EXPLAIN/PROFILE can annotate the plan they already render.
type Info struct {
	est map[algebra.Op]float64

	// EdgesReordered counts pattern nodes whose edge order changed.
	EdgesReordered int
	// FiltersReordered counts filter chains whose operator order changed.
	FiltersReordered int
	// BranchesReordered counts DisjFilters whose branch order changed.
	BranchesReordered int
	// NestedLoopJoins and MergeJoins count the costed algorithm choices.
	NestedLoopJoins int
	MergeJoins      int
}

// Estimate returns the estimated output cardinality of op, if planned.
func (i *Info) Estimate(op algebra.Op) (float64, bool) {
	if i == nil {
		return 0, false
	}
	e, ok := i.est[op]
	return e, ok
}

// Annotate renders the per-operator estimate annotation for EXPLAIN
// ("est=N"), or "" for operators the planner did not estimate.
func (i *Info) Annotate(op algebra.Op) string {
	e, ok := i.Estimate(op)
	if !ok {
		return ""
	}
	return "est=" + FormatEst(e)
}

// FormatEst renders a cardinality estimate compactly and deterministically:
// integral or large values without decimals, small fractional ones with a
// single decimal.
func FormatEst(e float64) string {
	if e >= 100 || e == float64(int64(e)) {
		return fmt.Sprintf("%.0f", e)
	}
	return fmt.Sprintf("%.1f", e)
}

// Summary renders the decision counters in one line.
func (i *Info) Summary() string {
	return fmt.Sprintf("edges reordered=%d, filter chains reordered=%d, disjunct branches reordered=%d, value joins: %d merge / %d nested-loop",
		i.EdgesReordered, i.FiltersReordered, i.BranchesReordered, i.MergeJoins, i.NestedLoopJoins)
}

// Plan runs the physical planning passes over the plan rooted at root and
// returns the (possibly re-rooted) plan together with the planning record.
// The passes, in order:
//
//  1. pattern-match edge ordering (cheapest branch first, per node);
//  2. filter-chain reordering (most selective predicate evaluated first)
//     and DisjFilter branch ordering (most likely disjunct tested first);
//  3. equality value-join algorithm selection by cost;
//  4. a final bottom-up estimation pass recording est(op) for every
//     operator of the finished plan.
//
// Plan mutates operators in place (edge slices, filter links, join flags);
// it must run before the plan is first evaluated.
func Plan(root algebra.Op, st *store.Store, _ Options) (algebra.Op, *Info) {
	info := &Info{est: make(map[algebra.Op]float64)}
	est := newEstimator(st, root)

	info.EdgesReordered = orderEdges(root, est)
	root, info.FiltersReordered = reorderFilterChains(root, est)
	info.BranchesReordered = reorderDisjBranches(root, est)

	// Join algorithm choice needs input cardinalities of the final shape.
	est = newEstimator(st, root)
	chooseJoins(root, est, info)

	for _, op := range algebra.Ops(root) {
		info.est[op] = est.estimate(op)
	}
	return root, info
}

// OrderEdges applies only the edge-ordering pass — the multi-document-aware
// replacement for the rewrite layer's former single-document heuristic,
// exported for the ordering ablation. It returns the number of pattern
// nodes whose edge order changed.
func OrderEdges(root algebra.Op, st *store.Store) int {
	return orderEdges(root, newEstimator(st, root))
}
