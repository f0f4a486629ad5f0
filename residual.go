package tlc

import (
	"tlc/internal/algebra"
	"tlc/internal/pattern"
)

// PredSites returns the translator's conjunctive simple-predicate sites in
// translation order (nil for the navigational engine). The plan cache
// aligns them with Canonicalize's literal sites: site i of one is site i
// of the other.
func (p *Prepared) PredSites() []PredSite { return p.predSites }

// SiteImplies reports whether the predicate (strongOp strongVal) implies
// (weakOp weakVal) — every content value satisfying the former satisfies
// the latter (see pattern.Implies for the soundness argument under the
// hybrid numeric/string comparison semantics). The plan cache uses it to
// pre-screen containment candidates before the pattern-tree-level check.
func SiteImplies(strongOp pattern.Cmp, strongVal string, weakOp pattern.Cmp, weakVal string) bool {
	return pattern.Implies(
		&pattern.Predicate{Op: strongOp, Value: strongVal},
		&pattern.Predicate{Op: weakOp, Value: weakVal},
	)
}

// ResidualSite asks WithResidual to re-filter one predicate site: keep
// only the trees whose class LCL member satisfies Op/Value.
type ResidualSite struct {
	LCL   int
	Op    pattern.Cmp
	Value string
}

// WithResidual derives a new Prepared from p that evaluates p's plan with
// a residual Filter grafted directly above the document Select owning each
// site — the containment-reuse path: a cached plan compiled for a weaker
// predicate serves a stricter query by re-filtering, skipping parse,
// translate, rewrite and planning entirely.
//
// Soundness is checked per site before any grafting and the derivation
// refuses (returns nil, false) unless every check passes:
//
//   - the site's class must live in exactly one document-rooted Select of
//     the plan (a liftable site: required "-" chain, one member per tree);
//   - the new predicate must imply the cached one (pattern.Implies), so
//     the cached match set is a superset to filter down from;
//   - substituting the new predicate into a clone of the cached pattern
//     tree must yield a tree the cached one subsumes (pattern.Subsumes) —
//     the homomorphism-level restatement of the same containment.
//
// p itself is never mutated: the spliced plan clones only the operators on
// the paths from the root to each owning Select and shares everything
// else, so the cached entry keeps serving other queries unchanged.
func (p *Prepared) WithResidual(sites []ResidualSite) (*Prepared, bool) {
	if p.plan == nil || len(sites) == 0 {
		return nil, false
	}
	plan := p.plan
	for _, s := range sites {
		sel := owningSelect(plan, s.LCL)
		if sel == nil {
			return nil, false
		}
		node := sel.APT.FindLCL(s.LCL)
		newPred := pattern.Predicate{Op: s.Op, Value: s.Value}
		if !pattern.Implies(&newPred, node.Pred) {
			return nil, false
		}
		specific := sel.APT.Clone()
		specific.FindLCL(s.LCL).Pred = &newPred
		if !pattern.Subsumes(sel.APT, specific) {
			return nil, false
		}
		lcl, pred := s.LCL, newPred
		next, ok := algebra.SpliceAbove(plan, sel, func(in algebra.Op) algebra.Op {
			return algebra.NewFilter(in, lcl, pred, algebra.AtLeastOne)
		})
		if !ok {
			return nil, false
		}
		plan = next
	}
	return &Prepared{
		engine: p.engine,
		plan:   plan,
		ast:    p.ast,
		limits: p.limits,
	}, true
}

// owningSelect finds the unique document-rooted Select whose pattern binds
// lcl (nil when absent or ambiguous).
func owningSelect(plan algebra.Op, lcl int) *algebra.Select {
	var found *algebra.Select
	for _, op := range algebra.Ops(plan) {
		sel, ok := op.(*algebra.Select)
		if !ok || sel.APT == nil || sel.APT.Root == nil || sel.APT.Root.Kind != pattern.TestDocRoot {
			continue
		}
		if sel.APT.FindLCL(lcl) == nil {
			continue
		}
		if found != nil {
			return nil
		}
		found = sel
	}
	return found
}
