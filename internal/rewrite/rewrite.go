package rewrite

import (
	"tlc/internal/algebra"
	"tlc/internal/pattern"
)

// Optimize applies the Section 4 rewrites to a TLC plan and returns the
// (possibly new) plan root together with the number of rewrites applied.
// The plan is rewritten in place where possible; callers should use the
// returned root.
func Optimize(root algebra.Op) (algebra.Op, int) {
	applied := 0
	for {
		// Flatten / Shadow-Illuminate first: they need the original
		// duplicate branches in place (merging or reusing them first would
		// hide the Figure 10/12 shapes).
		root1, n1 := flattenRewrite(root)
		root2, n2 := shadowNativeRewrite(root1)
		root3, n3 := mergeDuplicateBranches(root2)
		root4, n4 := reuseExtensionSelects(root3)
		root = root4
		applied += n1 + n2 + n3 + n4
		if n1+n2+n3+n4 == 0 {
			break
		}
	}
	return root, applied
}

// definesClasses returns the labels op introduces into its output trees
// (as opposed to labels it reads). A remap must not cross a definition
// point: above a Construct that labels its copies with NewLCL, references
// to that label mean the copies, not the matched originals.
func definesClasses(op algebra.Op) []int {
	switch x := op.(type) {
	case *algebra.Select:
		if x.APT == nil || x.APT.Root == nil {
			return nil
		}
		var out []int
		for _, n := range x.APT.Nodes() {
			if n.LCL > 0 {
				out = append(out, n.LCL)
			}
		}
		return out
	case *algebra.Aggregate:
		return []int{x.NewLCL}
	case *algebra.Join:
		return []int{x.RootLCL}
	case *algebra.Construct:
		var out []int
		var walk func(c *pattern.ConstructNode)
		walk = func(c *pattern.ConstructNode) {
			if c.NewLCL > 0 {
				out = append(out, c.NewLCL)
			}
			for _, ch := range c.Children {
				walk(ch)
			}
		}
		if x.Pattern != nil {
			walk(x.Pattern)
		}
		return out
	default:
		return nil
	}
}

// remapAbove applies the class remap to every operator strictly above
// `from` along its consumer chain, dropping a label from the remap once an
// operator redefines it.
func remapAbove(root algebra.Op, from algebra.Op, m map[int]int) {
	active := make(map[int]int, len(m))
	for k, v := range m {
		active[k] = v
	}
	for _, op := range analyze(root).chainAbove(from) {
		if len(active) == 0 {
			return
		}
		algebra.RemapOf(op, active)
		for _, def := range definesClasses(op) {
			delete(active, def)
		}
	}
}

// plan is a lightweight view of the operator tree with parent links,
// rebuilt before each rewrite because rewrites splice operators. A plan is
// a tree, so every operator but the root has exactly one consumer.
type plan struct {
	root   algebra.Op
	ops    []algebra.Op
	parent map[algebra.Op]algebra.Op
}

func analyze(root algebra.Op) *plan {
	p := &plan{root: root, parent: make(map[algebra.Op]algebra.Op)}
	p.ops = algebra.Ops(root)
	for _, op := range p.ops {
		for _, in := range op.Inputs() {
			p.parent[in] = op
		}
	}
	return p
}

// chainAbove returns the consumers of op from just above it to the root.
func (p *plan) chainAbove(op algebra.Op) []algebra.Op {
	var chain []algebra.Op
	for cur := p.parent[op]; cur != nil; cur = p.parent[cur] {
		chain = append(chain, cur)
	}
	return chain
}

// replace puts nw in old's place under old's consumer (or makes it the
// root) and returns the plan's root. Splicing an operator above old is
// replacing old with it; splicing old out is replacing it with its input.
func (p *plan) replace(old, nw algebra.Op) algebra.Op {
	if old == p.root {
		return nw
	}
	algebra.ReplaceInput(p.parent[old], old, nw)
	return p.root
}

func refsAny(op algebra.Op, set map[int]bool) bool {
	for _, r := range algebra.RefsOf(op) {
		if set[r] {
			return true
		}
	}
	return false
}

func toSet(lcls []int) map[int]bool {
	m := make(map[int]bool, len(lcls))
	for _, l := range lcls {
		m[l] = true
	}
	return m
}

// docSelects returns the document-rooted Selects of the plan.
func (p *plan) docSelects() []*algebra.Select {
	var out []*algebra.Select
	for _, op := range p.ops {
		if s, ok := op.(*algebra.Select); ok && s.APT != nil && s.APT.Root != nil &&
			s.APT.Root.Kind == pattern.TestDocRoot {
			out = append(out, s)
		}
	}
	return out
}

// mergeDuplicateBranches implements pattern tree reuse inside one APT
// (Section 4.1): two sibling branches with identical axis and matching
// specification where one embeds into the other collapse into the richer
// branch, and every consumer of the eliminated labels is redirected. This
// is the rewrite that merges the two "*" bidder branches of the Q2 inner
// select.
func mergeDuplicateBranches(root algebra.Op) (algebra.Op, int) {
	applied := 0
	for {
		p := analyze(root)
		changed := false
		for _, sel := range p.docSelects() {
			for _, node := range sel.APT.Nodes() {
				if merged, m := mergeSiblings(node); merged {
					remapAbove(root, sel, m)
					applied++
					changed = true
					break
				}
			}
			if changed {
				break
			}
		}
		if !changed {
			return root, applied
		}
	}
}

// mergeSiblings merges the first embeddable same-spec sibling pair under n.
func mergeSiblings(n *pattern.Node) (bool, map[int]int) {
	for i := 0; i < len(n.Edges); i++ {
		for j := 0; j < len(n.Edges); j++ {
			if i == j {
				continue
			}
			ei, ej := n.Edges[i], n.Edges[j]
			if ei.Axis != ej.Axis || ei.Spec != ej.Spec {
				continue
			}
			// Branch i is redundant when it embeds into branch j (branch j
			// matches at least everything branch i matches). embed maps
			// j-side labels to i-side labels for the shared structure;
			// inverting it redirects the dropped branch's labels to the
			// surviving one.
			m, _, ok := embed(ei.To, ej.To)
			if !ok {
				continue
			}
			n.Edges = append(n.Edges[:i:i], n.Edges[i+1:]...)
			inv := make(map[int]int, len(m))
			for jLbl, iLbl := range m {
				inv[iLbl] = jLbl
			}
			return true, inv
		}
	}
	return false, nil
}
