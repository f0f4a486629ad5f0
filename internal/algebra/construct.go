package algebra

import (
	"fmt"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// Construct assembles one output tree per input tree according to an
// annotated construct-pattern tree (Section 2.3). Class references copy
// whole subtrees — store-backed nodes are materialized from the store at
// this point and only at this point, which is the deferred-materialization
// property TLC has over TAX — and copies labelled with NewLCL remain
// addressable by enclosing query blocks (Figure 8).
type Construct struct {
	unary
	Pattern *pattern.ConstructNode
}

// NewConstruct returns a Construct over in.
func NewConstruct(in Op, pat *pattern.ConstructNode) *Construct {
	c := &Construct{Pattern: pat}
	c.In = in
	return c
}

// Label implements Op.
func (c *Construct) Label() string {
	return "Construct\n" + c.Pattern.String()
}

func (c *Construct) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	if c.Pattern == nil {
		return nil, fmt.Errorf("construct without a pattern")
	}
	// Construction creates temporary nodes, so the chunked path renumbers
	// after the gather to restore creation order across chunks.
	return chunkMap(ctx, in[0], true, func(chunk seq.Seq) (seq.Seq, error) {
		out := make(seq.Seq, 0, len(chunk))
		for _, t := range chunk {
			nt := ctx.arena.NewTree(nil)
			cn := construction{a: ctx.arena, st: ctx.Store, t: t, nt: nt}
			roots, err := cn.build(c.Pattern)
			if err != nil {
				return nil, err
			}
			switch len(roots) {
			case 1:
				nt.Root = roots[0]
			default:
				// A pattern whose top level expands to zero or several nodes
				// (e.g. a bare subtree reference) is wrapped in a result root,
				// keeping the output a tree.
				root := ctx.arena.TempElement("result")
				for _, r := range roots {
					seq.Attach(root, r)
				}
				nt.Root = root
			}
			out = append(out, nt)
		}
		return out, nil
	})
}

// construction is the state of building one output tree nt from one input
// tree t. Fresh nodes come out of the arena a — construction is where TLC
// pays its deferred materialization cost, so it is the allocation-heaviest
// spot.
type construction struct {
	a     *seq.Arena
	st    *store.Store
	t, nt *seq.Tree
	// classOf is the reverse class table of t (node → labels, ascending),
	// built the first time a copied subtree has labels to carry.
	classOf map[*seq.Node][]int
}

// build evaluates one construct node against the input tree, returning the
// nodes it produces and registering classes in the output tree.
func (cn *construction) build(c *pattern.ConstructNode) ([]*seq.Node, error) {
	a, st, t, nt := cn.a, cn.st, cn.t, cn.nt
	switch c.Kind {
	case pattern.ConstructElement:
		el := a.TempElement(c.Tag)
		for _, at := range c.Attrs {
			val := at.Literal
			if at.FromLCL > 0 {
				members := t.Class(at.FromLCL)
				if len(members) == 0 {
					continue // no value: attribute omitted
				}
				val = seq.Content(st, members[0])
			}
			seq.Attach(el, a.TempAttr(at.Name, val))
		}
		for _, ch := range c.Children {
			kids, err := cn.build(ch)
			if err != nil {
				return nil, err
			}
			for _, k := range kids {
				seq.Attach(el, k)
			}
		}
		if c.NewLCL > 0 {
			nt.AddToClass(c.NewLCL, el)
		}
		return []*seq.Node{el}, nil

	case pattern.ConstructSubtree:
		members := t.Class(c.FromLCL)
		outs := make([]*seq.Node, 0, len(members))
		for _, m := range members {
			cp := cn.copyForOutput(m)
			if c.NewLCL > 0 {
				nt.AddToClass(c.NewLCL, cp)
			}
			outs = append(outs, cp)
		}
		return outs, nil

	case pattern.ConstructText:
		members := t.Class(c.FromLCL)
		outs := make([]*seq.Node, 0, len(members))
		for _, m := range members {
			txt := a.TempText(seq.Content(st, m))
			if c.NewLCL > 0 {
				nt.AddToClass(c.NewLCL, txt)
			}
			outs = append(outs, txt)
		}
		return outs, nil

	case pattern.ConstructLiteral:
		return []*seq.Node{a.TempText(c.Literal)}, nil

	default:
		return nil, fmt.Errorf("unknown construct kind %d", c.Kind)
	}
}

// copyForOutput copies the full subtree of a referenced node into the
// output tree: store references are materialized from the store, temporary
// nodes (earlier construct results) are deep-copied, carrying their class
// labels along so outer blocks can keep referencing them.
func (cn *construction) copyForOutput(n *seq.Node) *seq.Node {
	if n.IsStore() && !n.Full {
		return seq.MaterializeIn(cn.a, cn.st, n.Doc, n.Ord)
	}
	cp, nm := seq.CopySubtree(cn.a, n)
	if len(n.Kids) == 0 {
		return cp // the reference root's own class is set by the caller
	}
	if cn.classOf == nil {
		cn.classOf = make(map[*seq.Node][]int)
		for _, lcl := range cn.t.Classes() {
			for _, m := range cn.t.ClassAll(lcl) {
				cn.classOf[m] = append(cn.classOf[m], lcl)
			}
		}
	}
	n.Walk(func(x *seq.Node) bool {
		if x != n {
			for _, lcl := range cn.classOf[x] {
				cn.nt.AddToClass(lcl, nm.Get(x))
			}
		}
		return true
	})
	return cp
}

var _ Op = (*Construct)(nil)
