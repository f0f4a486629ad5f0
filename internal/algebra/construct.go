package algebra

import (
	"fmt"
	"slices"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// Construct assembles one output tree per input tree according to an
// annotated construct-pattern tree (Section 2.3). A class reference to a
// stored node emits one store reference, which stands for the whole stored
// subtree: its value is read from the columns only when the answer is
// written out, or when an enclosing block's extension descends into it —
// the deferred-materialization property TLC has over TAX, carried to the
// socket. References to temporary nodes (earlier construct results) copy
// or move their subtrees, and copies labelled with NewLCL remain
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
	out := make(seq.Seq, 0, len(in[0]))
	single := subtreeRefs(c.Pattern) == 1
	for _, t := range in[0] {
		nt := ctx.arena.NewTree(nil)
		cn := construction{a: ctx.arena, st: ctx.Store, t: t, nt: nt, move: single && !t.Frozen()}
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
	// move lets temporary subtrees move from t into nt instead of being
	// copied: t is this construction's own (unfrozen) and the pattern has
	// a single subtree reference, so no other reference can place them.
	move bool
}

// subtreeRefs counts the subtree references of a construct pattern.
func subtreeRefs(c *pattern.ConstructNode) int {
	n := 0
	if c.Kind == pattern.ConstructSubtree {
		n++
	}
	for _, ch := range c.Children {
		n += subtreeRefs(ch)
	}
	return n
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
			cp := cn.copyForOutput(m, c.FromLCL)
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

// copyForOutput returns the output tree's node for the member n of class
// lcl. A store reference stands for its stored subtree, so it is copied as
// one node, which the serializer writes from the columns. A temporary node
// (an earlier construct result) brings its subtree along, moved when the
// construction may move and n is movable, deep-copied otherwise, with the
// class labels of the nodes below it, so outer blocks can keep referencing
// them.
func (cn *construction) copyForOutput(n *seq.Node, lcl int) *seq.Node {
	if n.IsStore() && !n.Full {
		return cn.a.StoreNode(n.Doc, n.Ord, n.Kind, n.Tag, n.Value)
	}
	if len(n.Kids) == 0 {
		cp, _ := seq.CopySubtree(cn.a, n)
		return cp // the reference root's own class is set by the caller
	}
	if cn.classOf == nil {
		cn.classOf = make(map[*seq.Node][]int)
		for _, l := range cn.t.Classes() {
			for _, m := range cn.t.ClassAll(l) {
				cn.classOf[m] = append(cn.classOf[m], l)
			}
		}
	}
	cp, nm := n, seq.NodeMap{}
	if !cn.move || !cn.movable(n, lcl) {
		cp, nm = seq.CopySubtree(cn.a, n)
	}
	cp.Parent = nil
	n.Walk(func(x *seq.Node) bool {
		if x != n {
			for _, l := range cn.classOf[x] {
				cn.nt.AddToClass(l, nm.Get(x))
			}
		}
		return true
	})
	return cp
}

// movable reports whether n may move out of the input tree: it is still
// there — its ancestors lead to t's root — and none of them is a member of
// class lcl, whose own move would already carry n.
func (cn *construction) movable(n *seq.Node, lcl int) bool {
	a := n
	for ; a.Parent != nil; a = a.Parent {
		if slices.Contains(cn.classOf[a.Parent], lcl) {
			return false
		}
	}
	return a == cn.t.Root
}

var _ Op = (*Construct)(nil)
