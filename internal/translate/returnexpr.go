package translate

import (
	"fmt"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
	"tlc/internal/xquery"
)

// orderBy processes the ORDER BY clause: one extension Select per key path
// ("-" edges, per Figure 6) followed by a Sort on the leaf classes.
func (t *translator) orderBy(keys []xquery.OrderKey) error {
	if len(keys) == 0 {
		return nil
	}
	sortKeys := make([]algebra.SortKey, 0, len(keys))
	for _, k := range keys {
		lcl, err := t.refClass(k.Path, pattern.One, false)
		if err != nil {
			return err
		}
		sortKeys = append(sortKeys, algebra.SortKey{LCL: lcl, Descending: k.Descending})
	}
	t.root = algebra.NewSort(t.root, sortKeys...)
	return nil
}

// processReturn builds the tail of the block plan: Project over the bound
// variables (plus the classes outer blocks reference), NodeIDDE over the
// FOR variables, the extension Selects and Aggregates the RETURN paths
// need, and the final Construct.
func (t *translator) processReturn(f *xquery.FLWOR) (*blockResult, error) {
	rb := &returnBuilder{t: t}
	pat, err := rb.build(f.Return)
	if err != nil {
		return nil, err
	}
	if pat.NewLCL == 0 {
		switch pat.Kind {
		case pattern.ConstructElement:
			pat.NewLCL = t.newLCL(pat.Tag)
		case pattern.ConstructSubtree, pattern.ConstructText:
			pat.NewLCL = pat.FromLCL
		default:
			pat.NewLCL = t.newLCL("result")
		}
	}

	// Projection keep list: join roots, variable classes, classes the
	// RETURN references directly, and classes exported to an outer Join.
	var keep []int
	seen := make(map[int]bool)
	add := func(lcl int) {
		if lcl > 0 && !seen[lcl] {
			seen[lcl] = true
			keep = append(keep, lcl)
		}
	}
	for _, j := range t.joins {
		add(j.op.RootLCL)
	}
	var forVars []int
	for _, v := range t.varOrder {
		b := t.vars[v]
		var lcl int
		if b.kind == bindPattern {
			lcl = b.node.LCL
		} else {
			lcl = b.rootLCL
		}
		add(lcl)
		if b.isFor {
			forVars = append(forVars, lcl)
		}
	}
	for _, lcl := range rb.keepExtra {
		add(lcl)
	}
	for _, lcl := range t.exports {
		add(lcl)
	}
	root := algebra.Op(algebra.NewProject(t.root, keep...))
	if len(forVars) > 0 {
		root = algebra.NewDupElim(root, forVars...)
	}
	for _, pend := range rb.pending {
		root = pend(root)
	}
	cons := algebra.NewConstruct(root, pat)
	t.root = cons

	// Exported join values ride along as labelled subtree copies inside
	// the construct result (the "(9)" child of Construct 8 in Figure 8).
	for _, lcl := range t.exports {
		pat.Children = append(pat.Children, &pattern.ConstructNode{
			Kind: pattern.ConstructSubtree, FromLCL: lcl, NewLCL: lcl,
		})
	}
	return &blockResult{plan: cons, pat: pat, rootLCL: pat.NewLCL}, nil
}

// returnBuilder accumulates the construct pattern, the deferred extension
// selects/aggregates and the extra projection classes of a RETURN clause.
type returnBuilder struct {
	t *translator
	// pending wraps the extension Selects and Aggregates to stack above
	// the Project/NodeIDDE, in encounter order.
	pending []func(algebra.Op) algebra.Op
	// keepExtra are already-existing classes the RETURN references, which
	// must survive the projection.
	keepExtra []int
}

func (rb *returnBuilder) build(r *xquery.RetNode) (*pattern.ConstructNode, error) {
	switch r.Kind {
	case xquery.RetElement:
		el := pattern.NewElement(r.Tag)
		for _, a := range r.Attrs {
			if a.Path == nil {
				el.Attrs = append(el.Attrs, pattern.ConstructAttr{Tag: "@" + a.Name, Literal: a.Literal})
				continue
			}
			lcl, err := rb.ref(a.Path)
			if err != nil {
				return nil, err
			}
			el.Attrs = append(el.Attrs, pattern.ConstructAttr{Tag: "@" + a.Name, FromLCL: lcl})
		}
		for _, ch := range r.Children {
			c, err := rb.build(ch)
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, c)
		}
		return el, nil

	case xquery.RetPath:
		lcl, err := rb.ref(r.Path)
		if err != nil {
			return nil, err
		}
		if r.Path.Text {
			return &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: lcl, NewLCL: lcl}, nil
		}
		return &pattern.ConstructNode{Kind: pattern.ConstructSubtree, FromLCL: lcl, NewLCL: lcl}, nil

	case xquery.RetAggr:
		lcl, err := rb.ref(r.Path)
		if err != nil {
			return nil, err
		}
		aggLCL := rb.t.newLCL(r.Fn)
		fn := algebra.AggFunc(r.Fn)
		rb.pending = append(rb.pending, func(in algebra.Op) algebra.Op {
			return algebra.NewAggregate(in, fn, lcl, aggLCL)
		})
		return &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: aggLCL, NewLCL: aggLCL}, nil

	case xquery.RetLiteral:
		return &pattern.ConstructNode{Kind: pattern.ConstructLiteral, Literal: r.Literal}, nil

	case xquery.RetSub:
		// A nested FLWOR in the RETURN clause behaves like an anonymous
		// LET: join now (the plan root grows), reference its construct.
		v := fmt.Sprintf("$%s_ret%d", "sub", len(rb.pending))
		if err := rb.t.bindNested(xquery.Binding{Kind: xquery.BindLet, Var: v, Sub: r.Sub}); err != nil {
			return nil, err
		}
		b := rb.t.vars[v]
		rb.keepExtra = append(rb.keepExtra, b.rootLCL)
		return &pattern.ConstructNode{Kind: pattern.ConstructSubtree, FromLCL: b.rootLCL, NewLCL: b.rootLCL}, nil

	default:
		return nil, fmt.Errorf("translate: unsupported RETURN node kind %d", r.Kind)
	}
}

// ref resolves a RETURN path reference to a class label, creating a
// deferred extension Select (with "*" edges, per the NestedQuery notes of
// Figure 6) when the path walks below the variable's node.
func (rb *returnBuilder) ref(p *xquery.Path) (int, error) {
	return rb.t.refClassPending(p, &rb.pending, &rb.keepExtra)
}

// refClass resolves a variable-rooted path to a class, materializing any
// needed extension select immediately above the current root (used by
// ORDER BY, which runs before projection).
func (t *translator) refClass(p *xquery.Path, spec pattern.MSpec, _ bool) (int, error) {
	var pending []func(algebra.Op) algebra.Op
	var keep []int
	lcl, err := t.resolveRef(p, spec, &pending, &keep)
	if err != nil {
		return 0, err
	}
	for _, fn := range pending {
		t.root = fn(t.root)
	}
	return lcl, nil
}

func (t *translator) refClassPending(p *xquery.Path, pending *[]func(algebra.Op) algebra.Op, keep *[]int) (int, error) {
	return t.resolveRef(p, pattern.ZeroOrMore, pending, keep)
}

func (t *translator) resolveRef(p *xquery.Path, spec pattern.MSpec, pending *[]func(algebra.Op) algebra.Op, keep *[]int) (int, error) {
	if p.Root != xquery.RootVariable {
		return 0, fmt.Errorf("translate: reference %s must be variable-rooted", p)
	}
	b, _ := t.lookup(p.Var)
	if b == nil {
		return 0, fmt.Errorf("translate: unbound variable %s", p.Var)
	}
	switch b.kind {
	case bindConstruct:
		if lcl, ok := t.resolveConstructStep(b, p.Steps); ok {
			*keep = append(*keep, lcl)
			return lcl, nil
		}
		return t.extensionSelect(b.rootLCL, p.Steps, spec, pending)
	default:
		if len(p.Steps) == 0 {
			return b.node.LCL, nil
		}
		return t.extensionSelect(b.node.LCL, p.Steps, spec, pending)
	}
}

// extensionSelect queues an extension Select anchored at the given class,
// returning the leaf class the new branch will bind.
func (t *translator) extensionSelect(anchorLCL int, steps []xquery.Step, spec pattern.MSpec, pending *[]func(algebra.Op) algebra.Op) (int, error) {
	if len(steps) == 0 {
		return anchorLCL, nil
	}
	anchor := pattern.NewLCAnchor(0, anchorLCL)
	leaf, err := t.extendChain(anchor, steps, spec)
	if err != nil {
		return 0, err
	}
	apt := &pattern.Tree{Root: anchor}
	*pending = append(*pending, func(in algebra.Op) algebra.Op {
		return algebra.NewExtendSelect(in, apt)
	})
	return leaf.LCL, nil
}
