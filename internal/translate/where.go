package translate

import (
	"fmt"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
	"tlc/internal/xquery"
)

// where processes the WHERE clause. Conjunctions are flattened and each
// conjunct handled by its Figure 6 case; disjunctions compile to optional
// pattern branches plus a disjunctive filter.
func (t *translator) where(e xquery.Expr) error {
	switch x := e.(type) {
	case *xquery.And:
		if err := t.where(x.L); err != nil {
			return err
		}
		return t.where(x.R)
	case *xquery.Or:
		return t.whereOr(x)
	case *xquery.Comparison:
		if x.RightPath != nil {
			return t.whereValueJoin(x)
		}
		return t.whereSimple(x)
	case *xquery.AggrPred:
		return t.whereAggr(x)
	case *xquery.Quantified:
		return t.whereQuantified(x)
	case *xquery.Not:
		return t.whereNot(x)
	case *xquery.Exists:
		return t.whereExists(x)
	default:
		return fmt.Errorf("translate: unsupported WHERE expression %T", e)
	}
}

// whereNot compiles not(...). Negations over connectives are pushed inward
// (De Morgan) and double negations cancel, so the base cases are a negated
// simple predicate or a negated existence test — both become a NOT-
// annotated (anti-join) pattern edge when the path walks below the
// variable, or a NoneOf filter when the predicate sits on the bound node
// itself.
func (t *translator) whereNot(n *xquery.Not) error {
	switch x := n.X.(type) {
	case *xquery.And:
		return t.where(&xquery.Or{L: &xquery.Not{X: x.L}, R: &xquery.Not{X: x.R}})
	case *xquery.Or:
		if err := t.where(&xquery.Not{X: x.L}); err != nil {
			return err
		}
		return t.where(&xquery.Not{X: x.R})
	case *xquery.Not:
		return t.where(x.X)
	case *xquery.Comparison:
		if x.RightPath != nil {
			return fmt.Errorf("translate: not() over a value join is not supported")
		}
		return t.whereNotSimple(x.Left, &pattern.Predicate{Op: x.Op, Value: x.RightVal})
	case *xquery.Exists:
		return t.whereNotSimple(x.Path, nil)
	default:
		return fmt.Errorf("translate: not() over %T is not supported", n.X)
	}
}

// whereNotSimple negates one simple predicate (pred == nil: a bare
// existence test): the tree survives only when NO match of the path
// satisfies the predicate.
func (t *translator) whereNotSimple(path *xquery.Path, pred *pattern.Predicate) error {
	b, err := t.patternVar(path)
	if err != nil {
		return err
	}
	if len(path.Steps) == 0 {
		if pred == nil {
			return fmt.Errorf("translate: not(%s) over a bare variable is not supported", path)
		}
		t.root = algebra.NewFilter(t.root, b.node.LCL, *pred, algebra.NoneOf)
		return nil
	}
	t.logicalChain(b.node, path.Steps, pred, 0, true)
	return nil
}

// whereExists compiles a bare-path existence conjunct: the path accretes
// with required "-" edges, so trees without a match are dropped by the
// Select itself.
func (t *translator) whereExists(x *xquery.Exists) error {
	b, err := t.patternVar(x.Path)
	if err != nil {
		return err
	}
	if len(x.Path.Steps) == 0 {
		return nil // a bound variable trivially exists
	}
	_, err = t.extendChain(b.node, x.Path.Steps, pattern.One)
	return err
}

// logicalChain hangs an anonymous existence-test chain below from: the
// first edge carries the logical annotation (OR-group id and/or NOT), the
// rest are plain "-" edges, and the optional predicate lands on the leaf
// (so equality probes are answered by the tag+value index).
func (t *translator) logicalChain(from *pattern.Node, steps []xquery.Step, pred *pattern.Predicate, group int, not bool) {
	cur := from
	for i, s := range steps {
		n := &pattern.Node{Kind: pattern.TestTag, Tag: s.Name}
		if i == 0 {
			cur.Edges = append(cur.Edges, pattern.Edge{
				Axis: s.Axis, Spec: pattern.ZeroOrMore, To: n, Group: group, Not: not,
			})
		} else {
			cur.Add(n, s.Axis, pattern.One)
		}
		cur = n
	}
	if cur != from {
		cur.Pred = pred
	}
}

// whereSimple handles SimplePredicateExpr: the path is accreted into the
// variable's APT with "-" edges and the predicate attached to the leaf.
func (t *translator) whereSimple(c *xquery.Comparison) error {
	pred := &pattern.Predicate{Op: c.Op, Value: c.RightVal}
	b, err := t.patternVar(c.Left)
	if err != nil {
		return err
	}
	if len(c.Left.Steps) == 0 {
		// Predicate on the bound node itself.
		if b.node.Pred == nil {
			b.node.Pred = pred
			return nil
		}
		t.root = algebra.NewFilter(t.root, b.node.LCL, *pred, algebra.AtLeastOne)
		return nil
	}
	leaf, err := t.extendChain(b.node, c.Left.Steps, pattern.One)
	if err != nil {
		return err
	}
	leaf.Pred = pred
	return nil
}

// whereAggr handles AggrPredExpr: the aggregated path joins the APT with
// "*" edges, and an Aggregate/Filter pair is spliced directly above the
// Select owning the variable (operators 3 and 4 of Figure 7).
func (t *translator) whereAggr(a *xquery.AggrPred) error {
	b, err := t.patternVar(a.Path)
	if err != nil {
		return err
	}
	// A bare variable aggregates over the variable's own class (a LET
	// binding's cluster); a path accretes a fresh "*" branch.
	leaf := b.node
	if len(a.Path.Steps) > 0 {
		leaf, err = t.extendChain(b.node, a.Path.Steps, pattern.ZeroOrMore)
		if err != nil {
			return err
		}
	}
	newLCL := t.newLCL(a.Fn)
	pred := pattern.Predicate{Op: a.Op, Value: a.Value}
	t.spliceAbove(b.sel, func(in algebra.Op) algebra.Op {
		return algebra.NewFilter(
			algebra.NewAggregate(in, algebra.AggFunc(a.Fn), leaf.LCL, newLCL),
			newLCL, pred, algebra.AtLeastOne)
	})
	return nil
}

// whereValueJoin handles ValueJoin: both paths accrete with "-" edges; if
// both variables are local the predicate lands on the Cartesian Join of
// their sources, otherwise the predicate is deferred to the enclosing
// block's outer-inner Join (Figure 8, Join 9).
func (t *translator) whereValueJoin(c *xquery.Comparison) error {
	// Which side is correlated (references an outer variable)? A local
	// join path accretes with "-" edges per Figure 7; a deferred join's
	// inner path accretes with "*" so the join values stay clustered in a
	// single tree per binding (the class-9 cluster of Figure 8) and the
	// deferred Join evaluates the predicate existentially over them.
	lTrPeek := t.sideOwner(c.Left)
	rTrPeek := t.sideOwner(c.RightPath)
	lOuter := lTrPeek != nil && lTrPeek != t
	rOuter := rTrPeek != nil && rTrPeek != t
	lSpec, rSpec := pattern.One, pattern.One
	if lOuter || rOuter {
		if lOuter && rOuter {
			return fmt.Errorf("translate: value join referencing only outer variables")
		}
		if lOuter {
			rSpec = pattern.ZeroOrMore
		} else {
			lSpec = pattern.ZeroOrMore
		}
	}
	lb, _, lLCL, err := t.joinSide(c.Left, lSpec)
	if err != nil {
		return err
	}
	rb, _, rLCL, err := t.joinSide(c.RightPath, rSpec)
	if err != nil {
		return err
	}
	switch {
	case lOuter:
		t.deferred = append(t.deferred, deferredPred{outerLCL: lLCL, op: c.Op, innerLCL: rLCL})
		t.exports = append(t.exports, rLCL)
		return nil
	case rOuter:
		t.deferred = append(t.deferred, deferredPred{outerLCL: rLCL, op: c.Op.Flip(), innerLCL: lLCL})
		t.exports = append(t.exports, lLCL)
		return nil
	}
	// Both sides local: refine the Cartesian Join of their selects.
	lVar, rVar := c.Left.Var, c.RightPath.Var
	for i := range t.joins {
		j := &t.joins[i]
		var predSpec *algebra.JoinPred
		switch {
		case j.leftVars[lVar] && j.rightVars[rVar]:
			predSpec = &algebra.JoinPred{LeftLCL: lLCL, Op: c.Op, RightLCL: rLCL}
		case j.leftVars[rVar] && j.rightVars[lVar]:
			predSpec = &algebra.JoinPred{LeftLCL: rLCL, Op: c.Op.Flip(), RightLCL: lLCL}
		default:
			continue
		}
		if j.op.Pred == nil {
			j.op.Pred = predSpec
			return nil
		}
		// The join already carries a predicate: evaluate this one as a
		// post-join comparison filter.
		t.root = algebra.NewFilterCompare(t.root, lLCL, c.Op, rLCL)
		return nil
	}
	// Same select on both sides (variables over one tree): compare inside
	// each tree.
	_ = lb
	_ = rb
	t.root = algebra.NewFilterCompare(t.root, lLCL, c.Op, rLCL)
	return nil
}

// sideOwner returns the translator owning a join path's root variable, or
// nil when unbound (the error surfaces in joinSide).
func (t *translator) sideOwner(p *xquery.Path) *translator {
	if p.Root != xquery.RootVariable {
		return nil
	}
	_, tr := t.lookup(p.Var)
	return tr
}

// joinSide accretes one side of a value join with the given edge spec and
// returns the binding, its owning translator and the leaf class.
func (t *translator) joinSide(p *xquery.Path, spec pattern.MSpec) (*binding, *translator, int, error) {
	if p.Root != xquery.RootVariable {
		return nil, nil, 0, fmt.Errorf("translate: join path %s must be variable-rooted", p)
	}
	b, tr := t.lookup(p.Var)
	if b == nil {
		return nil, nil, 0, fmt.Errorf("translate: unbound variable %s", p.Var)
	}
	if b.kind != bindPattern {
		return nil, nil, 0, fmt.Errorf("translate: value join over construct-bound variable %s", p.Var)
	}
	if len(p.Steps) == 0 {
		return b, tr, b.node.LCL, nil
	}
	leaf, err := t.extendChain(b.node, p.Steps, spec)
	if err != nil {
		return nil, nil, 0, err
	}
	return b, tr, leaf.LCL, nil
}

// whereQuantified handles EVERY/SOME: the quantified path accretes with
// "*" edges so that non-satisfying members do not eliminate trees at match
// time; the condition is evaluated by a Filter in EVERY (resp. ALO) mode.
func (t *translator) whereQuantified(q *xquery.Quantified) error {
	condLCL, err := t.quantTarget(q)
	if err != nil {
		return err
	}
	mode := algebra.AtLeastOne
	if q.Every {
		mode = algebra.Every
	}
	t.root = algebra.NewFilter(t.root, condLCL,
		pattern.Predicate{Op: q.Cond.Op, Value: q.Cond.RightVal}, mode)
	return nil
}

// quantTarget resolves the class the quantifier condition ranges over.
func (t *translator) quantTarget(q *xquery.Quantified) (int, error) {
	if q.Cond.Left.Root != xquery.RootVariable || q.Cond.Left.Var != q.Var {
		return 0, fmt.Errorf("translate: quantifier condition must test %s", q.Var)
	}
	condSteps := q.Cond.Left.Steps
	if q.Path.Root != xquery.RootVariable {
		return 0, fmt.Errorf("translate: quantified path %s must be variable-rooted", q.Path)
	}
	b, _ := t.lookup(q.Path.Var)
	if b == nil {
		return 0, fmt.Errorf("translate: unbound variable %s", q.Path.Var)
	}
	switch b.kind {
	case bindConstruct:
		lcl, ok := t.resolveConstructStep(b, q.Path.Steps)
		if !ok {
			return 0, fmt.Errorf("translate: cannot resolve %s inside the construct bound to %s", q.Path, q.Path.Var)
		}
		if len(condSteps) != 0 {
			return 0, fmt.Errorf("translate: quantifier condition paths below a construct binding are not supported")
		}
		return lcl, nil
	default:
		leaf := b.node
		if len(q.Path.Steps) > 0 {
			var err error
			leaf, err = t.extendChain(b.node, q.Path.Steps, pattern.ZeroOrMore)
			if err != nil {
				return 0, err
			}
		}
		if len(condSteps) > 0 {
			var err error
			leaf, err = t.extendChain(leaf, condSteps, pattern.ZeroOrMore)
			if err != nil {
				return 0, err
			}
		}
		return leaf.LCL, nil
	}
}

// whereOr compiles a disjunction — natively when whereOrNative accepts its
// shape, otherwise as follows: every disjunct must be a simple predicate;
// the paths accrete with "*" edges (optional — absence must not
// drop the tree before the disjunction is decided) and a DisjFilter
// evaluates the OR. Per Figure 6 the paper formulates OR as a UNION of
// plans; the optional-branch formulation yields the same trees without
// duplicating the block plan, keeping class labels consistent across
// disjuncts, which is what the ORExp case demands.
func (t *translator) whereOr(o *xquery.Or) error {
	if done, err := t.whereOrNative(o); done || err != nil {
		return err
	}
	var branches []algebra.FilterBranch
	var collect func(e xquery.Expr, neg bool) error
	collect = func(e xquery.Expr, neg bool) error {
		switch x := e.(type) {
		case *xquery.Or:
			if err := collect(x.L, neg); err != nil {
				return err
			}
			return collect(x.R, neg)
		case *xquery.Not:
			return collect(x.X, !neg)
		case *xquery.Exists:
			leaf, err := t.disjLeaf(x.Path)
			if err != nil {
				return err
			}
			branches = append(branches, algebra.FilterBranch{
				LCL:  leaf.LCL,
				Pred: predAlwaysTrue,
				Mode: disjMode(neg),
			})
			return nil
		case *xquery.Comparison:
			if x.RightPath != nil {
				return fmt.Errorf("translate: value joins inside OR are not supported")
			}
			leaf, err := t.disjLeaf(x.Left)
			if err != nil {
				return err
			}
			branches = append(branches, algebra.FilterBranch{
				LCL:  leaf.LCL,
				Pred: pattern.Predicate{Op: x.Op, Value: x.RightVal},
				Mode: disjMode(neg),
			})
			return nil
		default:
			return fmt.Errorf("translate: unsupported expression %T inside OR", e)
		}
	}
	if err := collect(o, false); err != nil {
		return err
	}
	t.root = algebra.NewDisjFilter(t.root, branches...)
	return nil
}

// predAlwaysTrue holds at any content value (no document carries the NUL
// sentinel); used to turn existence branches into predicate branches.
var predAlwaysTrue = pattern.Predicate{Op: pattern.NE, Value: "\x00tlc-never"}

func disjMode(neg bool) algebra.FilterMode {
	if neg {
		return algebra.NoneOf
	}
	return algebra.AtLeastOne
}

// disjLeaf resolves one disjunct path to an optional-branch pattern leaf
// (the legacy "*"-edge formulation).
func (t *translator) disjLeaf(p *xquery.Path) (*pattern.Node, error) {
	b, err := t.patternVar(p)
	if err != nil {
		return nil, err
	}
	if len(p.Steps) == 0 {
		return b.node, nil
	}
	return t.extendChain(b.node, p.Steps, pattern.ZeroOrMore)
}

// whereOrNative compiles a disjunction of same-node path predicates into an
// OR-annotated edge group on the shared pattern node, evaluated natively by
// the matcher in a single pass (one index probe per alternative tag,
// candidates merged in document order). It reports done=false when the
// disjunction does not fit that shape — mixed anchor nodes, value joins, or
// predicates on the bound node itself — and the caller falls back to the
// optional-branch + DisjFilter form.
func (t *translator) whereOrNative(o *xquery.Or) (bool, error) {
	type disjunct struct {
		path *xquery.Path
		pred *pattern.Predicate
		not  bool
	}
	var ds []disjunct
	fits := true
	var collect func(e xquery.Expr, neg bool)
	collect = func(e xquery.Expr, neg bool) {
		if !fits {
			return
		}
		switch x := e.(type) {
		case *xquery.Or:
			collect(x.L, neg)
			collect(x.R, neg)
		case *xquery.Not:
			collect(x.X, !neg)
		case *xquery.Exists:
			if len(x.Path.Steps) == 0 {
				fits = false
				return
			}
			ds = append(ds, disjunct{path: x.Path, not: neg})
		case *xquery.Comparison:
			if x.RightPath != nil || len(x.Left.Steps) == 0 {
				fits = false
				return
			}
			ds = append(ds, disjunct{
				path: x.Left,
				pred: &pattern.Predicate{Op: x.Op, Value: x.RightVal},
				not:  neg,
			})
		default:
			fits = false
		}
	}
	collect(o, false)
	if !fits || len(ds) < 2 {
		return false, nil
	}
	var anchor *binding
	for _, d := range ds {
		if d.path.Root != xquery.RootVariable {
			return false, nil
		}
		b, _ := t.lookup(d.path.Var)
		if b == nil || b.kind != bindPattern {
			return false, nil
		}
		if anchor == nil {
			anchor = b
		} else if b.node != anchor.node {
			return false, nil
		}
	}
	gid := t.shared.nextGroup()
	for _, d := range ds {
		t.logicalChain(anchor.node, d.path.Steps, d.pred, gid, d.not)
	}
	return true, nil
}

// patternVar resolves a path's root variable to a pattern binding.
func (t *translator) patternVar(p *xquery.Path) (*binding, error) {
	if p.Root != xquery.RootVariable {
		return nil, fmt.Errorf("translate: WHERE path %s must be variable-rooted", p)
	}
	b, _ := t.lookup(p.Var)
	if b == nil {
		return nil, fmt.Errorf("translate: unbound variable %s", p.Var)
	}
	if b.kind != bindPattern {
		return nil, fmt.Errorf("translate: predicate over construct-bound variable %s is not supported here", p.Var)
	}
	return b, nil
}

// spliceAbove inserts build(target) between target and its consumer in the
// current block plan (or re-roots the plan when target is the root).
func (t *translator) spliceAbove(target algebra.Op, build func(algebra.Op) algebra.Op) {
	if t.root == target {
		t.root = build(target)
		return
	}
	for _, op := range algebra.Ops(t.root) {
		for _, in := range op.Inputs() {
			if in == target {
				algebra.ReplaceInput(op, target, build(target))
				return
			}
		}
	}
	// target not in this block's plan (cannot happen for well-formed
	// queries); degrade gracefully by stacking on the root.
	t.root = build(t.root)
}

// resolveConstructStep resolves a one-step path below a construct-bound
// variable to the class label the inner Construct assigned (Figure 8: the
// myquan child of myauction is class 15, the copied bidders class 12).
func (t *translator) resolveConstructStep(b *binding, steps []xquery.Step) (int, bool) {
	if len(steps) == 0 {
		return b.rootLCL, true
	}
	if len(steps) != 1 {
		return 0, false
	}
	name := steps[0].Name
	var found int
	var walk func(c *pattern.ConstructNode, depth int)
	walk = func(c *pattern.ConstructNode, depth int) {
		if found != 0 {
			return
		}
		for _, ch := range c.Children {
			switch ch.Kind {
			case pattern.ConstructElement:
				if ch.Tag == name {
					// Label the constructed element on demand (the LCL=15
					// myquan label of Figure 8 exists precisely because the
					// outer block references it).
					if ch.NewLCL == 0 {
						ch.NewLCL = t.newLCL(name)
					}
					found = ch.NewLCL
					return
				}
			case pattern.ConstructSubtree:
				if ch.NewLCL > 0 && t.tagOf[ch.NewLCL] == name {
					found = ch.NewLCL
					return
				}
				if ch.NewLCL == 0 && t.tagOf[ch.FromLCL] == name {
					ch.NewLCL = ch.FromLCL
					found = ch.NewLCL
					return
				}
			}
			if steps[0].Axis == pattern.Descendant {
				walk(ch, depth+1)
			}
		}
	}
	walk(b.construct, 0)
	return found, found != 0
}
