package rewrite

import (
	"tlc/internal/algebra"
	"tlc/internal/pattern"
)

// reuseExtensionSelects implements pattern tree reuse across operators
// (Section 4.1): an extension Select that re-matches, under an anchor
// class A, a branch the originating document Select already matched with a
// compatible nested edge is redundant — the input trees already carry the
// wanted nodes in a logical class. The redundant branch is removed from
// the extension Select (the whole Select is spliced out when no branch
// remains), its labels are redirected to the existing class, and the
// projections in between are patched so the reused class survives.
func reuseExtensionSelects(root algebra.Op) (algebra.Op, int) {
	applied := 0
	for {
		p := analyze(root)
		newRoot, ok := reuseOnce(p)
		if !ok {
			return root, applied
		}
		root = newRoot
		applied++
	}
}

func reuseOnce(p *plan) (algebra.Op, bool) {
	for _, op := range p.ops {
		es, ok := op.(*algebra.Select)
		if !ok || es.APT == nil || es.APT.Root == nil || es.APT.Root.Kind != pattern.TestLC {
			continue
		}
		anchorClass := es.APT.Root.InClass
		below := es.Inputs()
		if len(below) != 1 {
			continue
		}
		subOps := algebra.Ops(below[0])
		for ei := range es.APT.Root.Edges {
			ee := es.APT.Root.Edges[ei]
			ds, eb := findCoveringBranch(subOps, anchorClass, ee)
			if ds == nil {
				continue
			}
			if !pathSafe(p, ds, es, eb) {
				continue
			}
			return applyReuse(p, ds, es, ei, eb), true
		}
	}
	return nil, false
}

// findCoveringBranch looks for a document Select whose APT has a node
// labelled anchorClass with a nested branch that covers the extension
// edge: same axis, compatible spec, the extension subtree embeds into the
// branch, and the branch's surplus structure is all optional (so it does
// not restrict the class membership the extension would have produced).
func findCoveringBranch(ops []algebra.Op, anchorClass int, ee pattern.Edge) (*algebra.Select, *pattern.Edge) {
	for _, op := range ops {
		ds, ok := op.(*algebra.Select)
		if !ok || ds.APT == nil || ds.APT.Root == nil || ds.APT.Root.Kind != pattern.TestDocRoot {
			continue
		}
		a := ds.APT.FindLCL(anchorClass)
		if a == nil {
			continue
		}
		for bi := range a.Edges {
			eb := &a.Edges[bi]
			// Logical (OR-group / NOT) branches are existence tests, not
			// class producers — they cannot serve an extension match.
			if eb.Logical() {
				continue
			}
			if eb.Axis != ee.Axis || !eb.Spec.Nested() {
				continue
			}
			if eb.Spec != ee.Spec && eb.Spec != pattern.ZeroOrMore {
				continue
			}
			_, extras, ok := embed(ee.To, eb.To)
			if !ok {
				continue
			}
			safe := true
			for _, ex := range extras {
				if !ex.edge.Spec.Optional() || ex.edge.Logical() {
					safe = false
					break
				}
			}
			if safe {
				return ds, eb
			}
		}
	}
	return nil, nil
}

// pathSafe verifies that no Flatten or Shadow between the originating
// select and the extension select touches the reused classes (either
// would make the existing class diverge from a fresh re-match).
func pathSafe(p *plan, ds *algebra.Select, es *algebra.Select, eb *pattern.Edge) bool {
	chain := p.chainAbove(ds)
	classes := toSet(subtreeLCLs(eb.To))
	reachedES := false
	for _, op := range chain {
		if op == es {
			reachedES = true
			break
		}
		switch x := op.(type) {
		case *algebra.Flatten:
			if classes[x.CLCL] || classes[x.PLCL] {
				return false
			}
		case *algebra.Shadow:
			if classes[x.CLCL] || classes[x.PLCL] {
				return false
			}
		}
	}
	return reachedES
}

// applyReuse removes edge ei from the extension select (splicing the whole
// select out when it was the only edge), redirects its labels to the
// covering branch and patches the intermediate projections.
func applyReuse(p *plan, ds *algebra.Select, es *algebra.Select, ei int, eb *pattern.Edge) algebra.Op {
	ee := es.APT.Root.Edges[ei]
	m, _, _ := embed(ee.To, eb.To) // maps eb labels -> ee labels
	remapM := make(map[int]int, len(m))
	for bLbl, eLbl := range m {
		if eLbl != bLbl {
			remapM[eLbl] = bLbl
		}
	}
	es.APT.Root.Edges = append(es.APT.Root.Edges[:ei:ei], es.APT.Root.Edges[ei+1:]...)
	if len(es.APT.Root.Edges) == 0 && es.APT.Root.LCL == 0 {
		p.root = p.replace(es, es.Inputs()[0])
	}
	// Patch projections between origin and extension select so the reused
	// class survives projection.
	np := analyze(p.root)
	for _, op := range np.chainAbove(ds) {
		if op == es {
			break
		}
		if pr, isP := op.(*algebra.Project); isP {
			for _, lcl := range subtreeLCLs(eb.To) {
				pr.Keep = append(pr.Keep, lcl)
			}
		}
	}
	remapAbove(p.root, ds, remapM)
	return p.root
}
