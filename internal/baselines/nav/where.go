package nav

import (
	"fmt"
	"strconv"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/xquery"
)

// whereHolds evaluates a WHERE expression under the environment by
// navigation. Comparisons over node sequences are existential (XQuery
// general comparisons).
func (ev *evaluator) whereHolds(x xquery.Expr, e env) (bool, error) {
	if x == nil {
		return true, nil
	}
	switch w := x.(type) {
	case *xquery.And:
		l, err := ev.whereHolds(w.L, e)
		if err != nil || !l {
			return false, err
		}
		return ev.whereHolds(w.R, e)
	case *xquery.Or:
		l, err := ev.whereHolds(w.L, e)
		if err != nil || l {
			return l, err
		}
		return ev.whereHolds(w.R, e)
	case *xquery.Comparison:
		lv, err := ev.values(w.Left, e)
		if err != nil {
			return false, err
		}
		if w.RightPath == nil {
			for _, v := range lv {
				if pattern.Compare(w.Op, v, w.RightVal) {
					return true, nil
				}
			}
			return false, nil
		}
		rv, err := ev.values(w.RightPath, e)
		if err != nil {
			return false, err
		}
		for _, l := range lv {
			for _, r := range rv {
				if pattern.Compare(w.Op, l, r) {
					return true, nil
				}
			}
		}
		return false, nil
	case *xquery.AggrPred:
		nodes, err := ev.path(w.Path, e)
		if err != nil {
			return false, err
		}
		agg, err := ev.aggregate(w.Fn, nodes)
		if err != nil {
			return false, err
		}
		return pattern.Compare(w.Op, agg, w.Value), nil
	case *xquery.Quantified:
		nodes, err := ev.path(w.Path, e)
		if err != nil {
			return false, err
		}
		for _, n := range nodes {
			ok, err := ev.whereHolds(w.Cond, e.extend(w.Var, []seq.NodeID{n}))
			if err != nil {
				return false, err
			}
			if w.Every && !ok {
				return false, nil
			}
			if !w.Every && ok {
				return true, nil
			}
		}
		// EVERY is vacuously true over an empty sequence; SOME is false.
		return w.Every, nil
	case *xquery.Not:
		ok, err := ev.whereHolds(w.X, e)
		if err != nil {
			return false, err
		}
		return !ok, nil
	case *xquery.Exists:
		nodes, err := ev.path(w.Path, e)
		if err != nil {
			return false, err
		}
		return len(nodes) > 0, nil
	default:
		return false, fmt.Errorf("nav: unsupported WHERE expression %T", x)
	}
}

// values evaluates a path to the content values of its matches.
func (ev *evaluator) values(p *xquery.Path, e env) ([]string, error) {
	nodes, err := ev.path(p, e)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = ev.arena.Content(ev.st, n)
	}
	return out, nil
}

// aggregate applies an aggregate function over node contents.
func (ev *evaluator) aggregate(fn string, nodes []seq.NodeID) (string, error) {
	if fn == "count" {
		return strconv.Itoa(len(nodes)), nil
	}
	if len(nodes) == 0 {
		return "empty", nil
	}
	var acc float64
	var vals []float64
	for _, n := range nodes {
		f, err := strconv.ParseFloat(ev.arena.Content(ev.st, n), 64)
		if err != nil {
			return "", fmt.Errorf("nav: aggregate %s over non-numeric content", fn)
		}
		vals = append(vals, f)
	}
	switch fn {
	case "sum", "avg":
		for _, v := range vals {
			acc += v
		}
		if fn == "avg" {
			acc /= float64(len(vals))
		}
	case "min":
		acc = vals[0]
		for _, v := range vals[1:] {
			if v < acc {
				acc = v
			}
		}
	case "max":
		acc = vals[0]
		for _, v := range vals[1:] {
			if v > acc {
				acc = v
			}
		}
	default:
		return "", fmt.Errorf("nav: unknown aggregate %q", fn)
	}
	return strconv.FormatFloat(acc, 'f', -1, 64), nil
}

// buildReturn materializes one output tree for a binding tuple.
func (ev *evaluator) buildReturn(r *xquery.RetNode, e env) (*seq.Tree, error) {
	nodes, err := ev.retNodes(r, e)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 1 {
		return ev.slab.NewTree(nodes[0]), nil
	}
	root := ev.slab.TempElement(seq.Intern("result"))
	for _, n := range nodes {
		ev.slab.Attach(root, n)
	}
	return ev.slab.NewTree(root), nil
}

func (ev *evaluator) retNodes(r *xquery.RetNode, e env) ([]seq.NodeID, error) {
	switch r.Kind {
	case xquery.RetElement:
		el := ev.slab.TempElement(seq.Intern(r.Tag))
		for _, a := range r.Attrs {
			if a.Path == nil {
				ev.slab.Attach(el, ev.slab.TempAttr(seq.Intern("@"+a.Name), a.Literal))
				continue
			}
			vs, err := ev.values(a.Path, e)
			if err != nil {
				return nil, err
			}
			if len(vs) > 0 {
				ev.slab.Attach(el, ev.slab.TempAttr(seq.Intern("@"+a.Name), vs[0]))
			}
		}
		for _, ch := range r.Children {
			kids, err := ev.retNodes(ch, e)
			if err != nil {
				return nil, err
			}
			for _, k := range kids {
				ev.slab.Attach(el, k)
			}
		}
		return []seq.NodeID{el}, nil
	case xquery.RetPath:
		nodes, err := ev.path(r.Path, e)
		if err != nil {
			return nil, err
		}
		var out []seq.NodeID
		for _, n := range nodes {
			if r.Path.Text {
				out = append(out, ev.slab.TempText(ev.arena.Content(ev.st, n)))
				continue
			}
			out = append(out, ev.copyOut(n))
		}
		return out, nil
	case xquery.RetAggr:
		nodes, err := ev.path(r.Path, e)
		if err != nil {
			return nil, err
		}
		v, err := ev.aggregate(r.Fn, nodes)
		if err != nil {
			return nil, err
		}
		return []seq.NodeID{ev.slab.TempText(v)}, nil
	case xquery.RetLiteral:
		return []seq.NodeID{ev.slab.TempText(r.Literal)}, nil
	case xquery.RetSub:
		sub, err := ev.flwor(r.Sub, e)
		if err != nil {
			return nil, err
		}
		var out []seq.NodeID
		for _, t := range sub {
			out = append(out, t.Root)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("nav: unsupported RETURN node kind %d", r.Kind)
	}
}

// copyOut materializes a node into the output: stored nodes are copied
// from the store, temporary nodes (inner FLWOR results) are reused.
func (ev *evaluator) copyOut(n seq.NodeID) seq.NodeID {
	if x := ev.arena.Node(n); x.IsStore() && !x.Full {
		return seq.MaterializeIn(ev.arena, ev.st, x.Doc, x.Ord)
	}
	return n
}
