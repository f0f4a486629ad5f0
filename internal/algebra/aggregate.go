package algebra

import (
	"fmt"
	"strconv"

	"tlc/internal/seq"
	"tlc/internal/store"
)

// AggFunc names an aggregate function.
type AggFunc string

// Supported aggregate functions.
const (
	Count AggFunc = "count"
	Sum   AggFunc = "sum"
	Avg   AggFunc = "avg"
	Min   AggFunc = "min"
	Max   AggFunc = "max"
)

// Aggregate applies an aggregate function to the members of a logical
// class within each tree (Section 2.3, Aggregate-Function). The result is
// a fresh node labelled NewLCL, placed as a sibling of the class members
// (or under the root when the class is empty). An empty class yields 0 for
// count and the flag "empty" for every other function, per the paper.
type Aggregate struct {
	unary
	Fn     AggFunc
	LCL    int
	NewLCL int
}

// NewAggregate returns an Aggregate over in.
func NewAggregate(in Op, fn AggFunc, lcl, newLCL int) *Aggregate {
	a := &Aggregate{Fn: fn, LCL: lcl, NewLCL: newLCL}
	a.In = in
	return a
}

// Label implements Op.
func (a *Aggregate) Label() string {
	return fmt.Sprintf("Aggregate: %s((%d)) -> new (%d)", a.Fn, a.LCL, a.NewLCL)
}

func (a *Aggregate) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	// Aggregate only adds one node per tree; it mutates trees it owns in
	// place and copies frozen shared ones first.
	trees := in[0]
	for i, src := range trees {
		t, nm := src.MutableWithMapping()
		trees[i] = t
		members := make([]*seq.Node, 0, len(src.Class(a.LCL)))
		for _, m := range src.Class(a.LCL) {
			members = append(members, nm.Get(m))
		}
		val, err := applyAgg(ctx.Store, a.Fn, members)
		if err != nil {
			return nil, err
		}
		res := ctx.arena.TempElement(string(a.Fn))
		seq.Attach(res, ctx.arena.TempText(val))
		parent := t.Root
		if len(members) > 0 && members[0].Parent != nil {
			parent = members[0].Parent
		}
		seq.Attach(parent, res)
		t.AddToClass(a.NewLCL, res)
	}
	return trees, nil
}

// applyAgg computes the aggregate over the member contents.
func applyAgg(st *store.Store, fn AggFunc, members []*seq.Node) (string, error) {
	if fn == Count {
		return strconv.Itoa(len(members)), nil
	}
	if len(members) == 0 {
		return "empty", nil
	}
	vals := make([]float64, 0, len(members))
	for _, m := range members {
		c := seq.Content(st, m)
		f, err := strconv.ParseFloat(c, 64)
		if err != nil {
			return "", fmt.Errorf("aggregate %s over non-numeric content %q", fn, c)
		}
		vals = append(vals, f)
	}
	var acc float64
	switch fn {
	case Sum, Avg:
		for _, v := range vals {
			acc += v
		}
		if fn == Avg {
			acc /= float64(len(vals))
		}
	case Min:
		acc = vals[0]
		for _, v := range vals[1:] {
			if v < acc {
				acc = v
			}
		}
	case Max:
		acc = vals[0]
		for _, v := range vals[1:] {
			if v > acc {
				acc = v
			}
		}
	default:
		return "", fmt.Errorf("unknown aggregate function %q", fn)
	}
	return strconv.FormatFloat(acc, 'f', -1, 64), nil
}

var _ Op = (*Aggregate)(nil)
