package rewrite

import (
	"sort"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
)

// flattenRewrite implements the Flatten rewrite of Section 4.2 (Figure 10)
// and, when a later extension Select re-matches the flattened class, the
// Shadow/Illuminate variant of Section 4.3 (Figure 12, applied to Q1 as
// described at the end of Section 4.3).
//
// Detection (phase 1): a document Select whose APT contains a node A with
// two branches over the same tag — B with a nested edge ("+"/"*") and C
// with a flat edge ("-"/"?") — where tree(B) embeds into tree(C), and the
// operator chain uses tree(B) strictly before the first use of tree(C).
//
// Rewrite (phase 2): branch C is removed from the APT; after the last
// operator using tree(B), a Flatten(A, B) breaks the cluster apart and an
// extension Select re-attaches the branches C had beyond B; all references
// to C's labels are redirected to B's. When a later extension Select
// anchored at A re-matches the same tag with a nested edge, Shadow is used
// instead of Flatten, the re-matching Select is replaced by Illuminate,
// and the projections in between are patched to carry the shadowed class.
func flattenRewrite(root algebra.Op) (algebra.Op, int) {
	applied := 0
	for {
		p := analyze(root)
		newRoot, ok := flattenOnce(p)
		if !ok {
			return root, applied
		}
		root = newRoot
		applied++
	}
}

func flattenOnce(p *plan) (algebra.Op, bool) {
	for _, sel := range p.docSelects() {
		chain := p.chainAbove(sel)
		for _, a := range sel.APT.Nodes() {
			if a.LCL <= 0 {
				continue
			}
			for bi := range a.Edges {
				for ci := range a.Edges {
					if bi == ci {
						continue
					}
					eb, ec := a.Edges[bi], a.Edges[ci]
					// Phase 1 conditions: B nested, C strictly "-" (a "?"
					// edge lets childless parents through, which Flatten
					// would drop), same axis.
					if !eb.Spec.Nested() || ec.Spec != pattern.One || eb.Axis != ec.Axis {
						continue
					}
					lclMap, extras, ok := embed(eb.To, ec.To)
					if !ok {
						continue
					}
					if newRoot, done := applyFlatten(p, sel, chain, a, bi, ci, lclMap, extras); done {
						return newRoot, true
					}
				}
			}
		}
	}
	return nil, false
}

func applyFlatten(p *plan, sel *algebra.Select, chain []algebra.Op, a *pattern.Node,
	bi, ci int, lclMap map[int]int, extras []extra) (algebra.Op, bool) {

	eb, ec := a.Edges[bi], a.Edges[ci]
	bSet := toSet(subtreeLCLs(eb.To))
	cSet := toSet(subtreeLCLs(ec.To))

	// Usage ordering along the chain: every B use must precede the first
	// C use, and B must actually be used (otherwise branch merging is the
	// right rewrite, not Flatten). A C branch referenced by no operator is
	// purely a filtering branch (a predicate path); its "use" is the match
	// itself, which the extension select after Flatten reproduces.
	lastB, firstC := -1, len(chain)
	for i, op := range chain {
		if refsAny(op, bSet) {
			lastB = i
		}
		if firstC == len(chain) && refsAny(op, cSet) {
			firstC = i
		}
	}
	if lastB == -1 || lastB >= firstC {
		return nil, false
	}

	// Is there a later extension Select anchored at A's class re-matching
	// the same tag with a nested edge? Then use Shadow + Illuminate.
	var illumSel *algebra.Select
	var illumMap map[int]int
	var illumExtras []extra
	for i := lastB + 1; i < len(chain); i++ {
		es, ok := chain[i].(*algebra.Select)
		if !ok || es.APT == nil || es.APT.Root == nil || es.APT.Root.Kind != pattern.TestLC {
			continue
		}
		if es.APT.Root.InClass != a.LCL || len(es.APT.Root.Edges) != 1 {
			continue
		}
		ee := es.APT.Root.Edges[0]
		if !ee.Spec.Nested() || ee.Axis != eb.Axis {
			continue
		}
		m, ex, ok := embed(eb.To, ee.To)
		if !ok {
			continue
		}
		illumSel = es
		illumMap = m
		illumExtras = ex
		break
	}

	// Phase 2: remove branch C.
	a.Edges = append(a.Edges[:ci:ci], a.Edges[ci+1:]...)

	// Insertion point: directly above the last operator using tree(B)
	// (or above the Select itself when B is used only via the pattern).
	below := algebra.Op(sel)
	if lastB >= 0 {
		below = chain[lastB]
	}
	var breaker algebra.Op
	if illumSel != nil {
		breaker = algebra.NewShadow(below, a.LCL, eb.To.LCL)
	} else {
		breaker = algebra.NewFlatten(below, a.LCL, eb.To.LCL)
	}
	if len(extras) > 0 {
		breaker = algebra.NewExtendSelect(breaker, extrasAPT(extras))
	}
	p.root = p.replace(below, breaker)

	// Redirect the consumers of C's labels to B's, stopping at operators
	// that redefine a label (construct copies).
	remap := make(map[int]int, len(lclMap))
	for cLbl, bLbl := range lclMap {
		if cLbl != bLbl {
			remap[cLbl] = bLbl
		}
	}
	remapAbove(p.root, sel, remap)

	if illumSel != nil {
		finishIlluminate(p, sel, illumSel, eb.To.LCL, bSet, illumMap, illumExtras)
	}
	return p.root, true
}

// finishIlluminate replaces the redundant extension Select with an
// Illuminate of the shadowed class, remaps the Select's labels onto the
// shadowed branch's, re-attaches any surplus branches, and patches the
// projections in between so the shadowed nodes survive to the Illuminate.
func finishIlluminate(p *plan, origin, es *algebra.Select, bLCL int, bSet map[int]bool,
	m map[int]int, extras []extra) {

	// Patch every Project between origin and the extension select: the
	// shadowed class rides through invisibly but must not be projected
	// away.
	np := analyze(p.root)
	for _, op := range np.chainAbove(origin) {
		if op == es {
			break
		}
		if pr, isP := op.(*algebra.Project); isP {
			// Sorted for a deterministic plan rendering (bSet is a map).
			lcls := make([]int, 0, len(bSet))
			for lcl := range bSet {
				lcls = append(lcls, lcl)
			}
			sort.Ints(lcls)
			pr.Keep = append(pr.Keep, lcls...)
		}
	}
	// Replace the extension select with Illuminate (+ extras re-match).
	in := es.Inputs()[0]
	var repl algebra.Op = algebra.NewIlluminate(in, bLCL)
	if len(extras) > 0 {
		repl = algebra.NewExtendSelect(repl, extrasAPT(extras))
	}
	p.root = np.replace(es, repl)
	// Redirect the extension select's labels (anchor relabel plus branch
	// labels) to the shadowed branch, definition-scoped.
	remap := make(map[int]int, len(m)+1)
	for esLbl, bLbl := range m {
		if esLbl != bLbl {
			remap[esLbl] = bLbl
		}
	}
	if es.APT.Root.Edges[0].To.LCL != bLCL {
		remap[es.APT.Root.Edges[0].To.LCL] = bLCL
	}
	remapAbove(p.root, origin, remap)
}

// extrasAPT assembles one extension APT from surplus branches grouped by
// their anchor class. All current call sites produce extras under a single
// anchor; grouping keeps the helper total.
func extrasAPT(extras []extra) *pattern.Tree {
	anchor := pattern.NewLCAnchor(0, extras[0].anchorLCL)
	for _, e := range extras {
		if e.anchorLCL == extras[0].anchorLCL {
			anchor.Edges = append(anchor.Edges, e.edge)
		}
	}
	return &pattern.Tree{Root: anchor}
}
