package algebra

import (
	"fmt"

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
	s := ctx.arena.Hold()
	defer ctx.arena.Release(s)
	cn := construction{s: s, a: ctx.arena, st: ctx.Store}
	for _, t := range in[0] {
		nt := s.NewTree(seq.NoNode)
		cn.t, cn.nt, cn.move = t, nt, single
		cn.indexed = false
		if err := cn.build(c.Pattern); err != nil {
			return nil, err
		}
		switch len(cn.stack) {
		case 1:
			nt.Root = cn.stack[0]
		default:
			// A pattern whose top level expands to zero or several nodes
			// (e.g. a bare subtree reference) is wrapped in a result root,
			// keeping the output a tree.
			nt.Root = cn.adopt(s.TempElement(resultTag), 0)
		}
		cn.stack = cn.stack[:0]
		out = append(out, nt)
	}
	return out, nil
}

// resultTag is the tag of the root that wraps a multi-node construct
// result.
var resultTag = seq.Intern("result")

// construction is the state of building one output tree nt from one input
// tree t; one construction serves a whole Construct call. Fresh nodes come
// out of the held slab s — construction is where TLC pays its deferred
// materialization cost, so it is the allocation-heaviest spot.
type construction struct {
	s     *seq.Slab
	a     *seq.Arena
	st    *store.Store
	t, nt *seq.Tree
	// stack holds the nodes built so far whose parent is not built yet:
	// build pushes what a pattern node produces, and an element pops its
	// children off into one exactly sized child list.
	stack []seq.NodeID
	// classOf is the reverse class table of t: a node's labels are a chain
	// in links, ascending, starting at classOf[node]-1. It is built the
	// first time a copied subtree of t has labels to carry; indexed reports
	// whether it has been built for the current t. Map and links are kept
	// across trees and refilled once per tree that needs them.
	classOf map[seq.NodeID]int
	links   []classLink
	indexed bool
	// move lets temporary subtrees move from t into nt instead of being
	// copied: t is this construction's own and the pattern has a single
	// subtree reference, so no other reference can place them.
	move bool
}

// classLink is one label in a node's chain of the reverse class table;
// next is the index of the following link plus one, 0 at the end.
type classLink struct{ lcl, next int }

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

// adopt makes the nodes on the stack from mark up the children of el,
// pops them, and returns el.
func (cn *construction) adopt(el seq.NodeID, mark int) seq.NodeID {
	if kids := cn.stack[mark:]; len(kids) > 0 {
		cn.a.SetKids(el, kids)
	}
	cn.stack = cn.stack[:mark]
	return el
}

// build evaluates one construct node against the input tree, pushing the
// nodes it produces onto the stack and registering classes in the output
// tree.
func (cn *construction) build(c *pattern.ConstructNode) error {
	s, st, t, nt := cn.s, cn.st, cn.t, cn.nt
	switch c.Kind {
	case pattern.ConstructElement:
		el, mark := s.TempElement(seq.Intern(c.Tag)), len(cn.stack)
		for _, at := range c.Attrs {
			val := at.Literal
			if at.FromLCL > 0 {
				members := t.Class(at.FromLCL)
				if len(members) == 0 {
					continue // no value: attribute omitted
				}
				val = t.Content(st, members[0])
			}
			cn.stack = append(cn.stack, s.TempAttr(seq.Intern(at.Tag), val))
		}
		for _, ch := range c.Children {
			if err := cn.build(ch); err != nil {
				return err
			}
		}
		cn.adopt(el, mark)
		if c.NewLCL > 0 {
			nt.AddToClass(c.NewLCL, el)
		}
		cn.stack = append(cn.stack, el)

	case pattern.ConstructSubtree:
		for _, m := range t.Class(c.FromLCL) {
			cp := cn.copyForOutput(m, c.FromLCL)
			if c.NewLCL > 0 {
				nt.AddToClass(c.NewLCL, cp)
			}
			cn.stack = append(cn.stack, cp)
		}

	case pattern.ConstructText:
		for _, m := range t.Class(c.FromLCL) {
			txt := s.TempText(t.Content(st, m))
			if c.NewLCL > 0 {
				nt.AddToClass(c.NewLCL, txt)
			}
			cn.stack = append(cn.stack, txt)
		}

	case pattern.ConstructLiteral:
		cn.stack = append(cn.stack, s.TempText(c.Literal))

	default:
		return fmt.Errorf("unknown construct kind %d", c.Kind)
	}
	return nil
}

// copyForOutput returns the output tree's node for the member n of class
// lcl. A store reference stands for its stored subtree, so it is copied as
// one node, which the serializer writes from the columns. A temporary node
// (an earlier construct result) brings its subtree along, moved when the
// construction may move and n is movable, deep-copied otherwise, with the
// class labels of the nodes below it, so outer blocks can keep referencing
// them.
func (cn *construction) copyForOutput(n seq.NodeID, lcl int) seq.NodeID {
	a := cn.a
	x := a.Node(n)
	if x.IsStore() && !x.Full {
		return cn.s.StoreNode(x.Doc, x.Ord, x.Kind)
	}
	if len(a.Kids(n)) == 0 {
		cp, nm := cn.s.CopySubtree(n)
		nm.Release()
		return cp // the reference root's own class is set by the caller
	}
	if !cn.indexed {
		cn.index()
	}
	cp, nm := n, seq.NodeMap{}
	if !cn.move || !cn.movable(n, lcl) {
		cp, nm = cn.s.CopySubtree(n)
	}
	a.Node(cp).Parent = seq.NoNode
	a.Walk(n, func(y seq.NodeID) bool {
		if y != n {
			for i := cn.classOf[y]; i > 0; i = cn.links[i-1].next {
				cn.nt.AddToClass(cn.links[i-1].lcl, nm.Get(y))
			}
		}
		return true
	})
	nm.Release()
	return cp
}

// index fills the reverse class table of the current input tree. Classes
// are chained in descending order, each at the head, so every chain reads
// ascending.
func (cn *construction) index() {
	if cn.classOf == nil {
		cn.classOf = make(map[seq.NodeID]int)
	}
	clear(cn.classOf)
	cn.links = cn.links[:0]
	ls := cn.t.Classes()
	for i := len(ls) - 1; i >= 0; i-- {
		for _, m := range cn.t.ClassAll(ls[i]) {
			cn.links = append(cn.links, classLink{lcl: ls[i], next: cn.classOf[m]})
			cn.classOf[m] = len(cn.links)
		}
	}
	cn.indexed = true
}

// inClass reports whether n is a member of class lcl of the input tree,
// by the reverse class table.
func (cn *construction) inClass(n seq.NodeID, lcl int) bool {
	for i := cn.classOf[n]; i > 0; i = cn.links[i-1].next {
		if cn.links[i-1].lcl == lcl {
			return true
		}
	}
	return false
}

// movable reports whether n may move out of the input tree: it is still
// there — its ancestors lead to t's root — and none of them is a member of
// class lcl, whose own move would already carry n.
func (cn *construction) movable(n seq.NodeID, lcl int) bool {
	a := n
	for p := cn.a.Node(a).Parent; p != seq.NoNode; p = cn.a.Node(a).Parent {
		if cn.inClass(p, lcl) {
			return false
		}
		a = p
	}
	return a == cn.t.Root
}

var _ Op = (*Construct)(nil)
