package rewrite

import (
	"tlc/internal/algebra"
	"tlc/internal/pattern"
)

// shadowNativeRewrite implements the Shadow/Illuminate rewrite in its
// original Figure 12 form: a document Select matches a branch B with a
// flat edge ("-"/"?"), and a later extension Select anchored at the same
// node re-matches the branch with a nested edge ("+"/"*") to cluster all
// siblings for the output. The rewrite upgrades the Select's edge to the
// nested specification, inserts a Shadow directly above the Select — which
// reproduces the flat multiplication while *retaining* the suppressed
// siblings as shadowed nodes — and replaces the re-matching extension
// Select with an Illuminate. Intermediate projections are patched to carry
// the shadowed class, and any branches the extension Select had beyond B
// are re-attached by a small extension Select after the Illuminate.
func shadowNativeRewrite(root algebra.Op) (algebra.Op, int) {
	applied := 0
	for {
		p := analyze(root)
		newRoot, ok := shadowOnce(p)
		if !ok {
			return root, applied
		}
		root = newRoot
		applied++
	}
}

func shadowOnce(p *plan) (algebra.Op, bool) {
	for _, sel := range p.docSelects() {
		chain := p.chainAbove(sel)
		for _, a := range sel.APT.Nodes() {
			if a.LCL <= 0 {
				continue
			}
			for bi := range a.Edges {
				eb := &a.Edges[bi]
				// Only "-" edges: Shadow (like Flatten) emits nothing for
				// an empty sibling class, so it cannot reproduce the
				// pass-through of "?".
				if eb.Spec != pattern.One {
					continue
				}
				rm := findNestedRematch(chain, a.LCL, *eb)
				if rm == nil {
					continue
				}
				// No operator may use B's classes after the re-match (they
				// would observe the cluster where they expected the flat
				// multiplication).
				bSet := toSet(subtreeLCLs(eb.To))
				safe := true
				for i := rm.idx + 1; i < len(chain); i++ {
					if refsAny(chain[i], bSet) {
						safe = false
						break
					}
				}
				// Flatten and Shadow on the same classes in between would
				// interfere.
				for i := 0; i < rm.idx && safe; i++ {
					switch x := chain[i].(type) {
					case *algebra.Flatten:
						safe = !(bSet[x.CLCL] || x.PLCL == a.LCL)
					case *algebra.Shadow:
						safe = !(bSet[x.CLCL] || x.PLCL == a.LCL)
					}
				}
				if !safe {
					continue
				}
				return applyShadowNative(p, sel, a, eb, rm, bSet), true
			}
		}
	}
	return nil, false
}

// rematch describes a redundant re-matching extension Select and how to
// reconcile it with the select branch B.
type rematch struct {
	es *algebra.Select
	// m maps the extension select's labels onto B's labels.
	m map[int]int
	// postIlluminate are branches the extension select has beyond B,
	// re-matched after the Illuminate.
	postIlluminate []extra
	// moveOut are B's branches beyond the extension select's needs: they
	// are detached from the select's APT and re-matched by an extension
	// select placed after the Shadow, so that B's class membership matches
	// what the re-match would have produced (all siblings, not only the
	// ones satisfying B's sub-branches).
	moveOut bool
	idx     int
}

// findNestedRematch looks along the chain for an extension Select anchored
// at anchorLCL whose single nested edge matches branch eb in either
// direction: tree(B) ⊆ tree(C) (the paper's phase-1 condition — C's
// surplus re-matches after Illuminate) or C bare with tree(C) ⊂ tree(B)
// (B's sub-branches move after the Shadow).
func findNestedRematch(chain []algebra.Op, anchorLCL int, eb pattern.Edge) *rematch {
	for i, op := range chain {
		es, ok := op.(*algebra.Select)
		if !ok || es.APT == nil || es.APT.Root == nil || es.APT.Root.Kind != pattern.TestLC {
			continue
		}
		if es.APT.Root.InClass != anchorLCL || len(es.APT.Root.Edges) != 1 {
			continue
		}
		ee := es.APT.Root.Edges[0]
		if !ee.Spec.Nested() || ee.Axis != eb.Axis {
			continue
		}
		// embed(b, c) maps c's labels onto b's: the orientation m takes.
		if m, extras, ok := embed(eb.To, ee.To); ok {
			return &rematch{es: es, m: m, postIlluminate: extras, idx: i}
		}
		// Reverse direction: the re-match asks for bare nodes that the
		// select branch restricts further.
		if len(ee.To.Edges) == 0 && nodesCompatible(eb.To, ee.To) && len(eb.To.Edges) > 0 {
			m := map[int]int{}
			if ee.To.LCL > 0 && eb.To.LCL > 0 {
				m[ee.To.LCL] = eb.To.LCL
			}
			return &rematch{es: es, m: m, moveOut: true, idx: i}
		}
	}
	return nil
}

func applyShadowNative(p *plan, sel *algebra.Select, a *pattern.Node,
	eb *pattern.Edge, rm *rematch, bSet map[int]bool) algebra.Op {

	// Upgrade the flat edge to the nested specification and reproduce the
	// flat multiplication with a Shadow directly above the Select.
	eb.Spec = pattern.OneOrMore
	bLCL := eb.To.LCL

	// In the reverse direction, B's sub-branches leave the select (so the
	// nested class covers *all* siblings, as the re-match would) and are
	// re-applied to the single active sibling after the Shadow.
	var moved []pattern.Edge
	if rm.moveOut {
		moved = eb.To.Edges
		eb.To.Edges = nil
	}
	var out algebra.Op = algebra.NewShadow(sel, a.LCL, bLCL)
	if len(moved) > 0 {
		anchor := pattern.NewLCAnchor(0, bLCL)
		anchor.Edges = moved
		out = algebra.NewExtendSelect(out, &pattern.Tree{Root: anchor})
	}
	p.root = p.replace(sel, out)
	finishIlluminate(p, sel, rm.es, bLCL, bSet, rm.m, rm.postIlluminate)
	return p.root
}
