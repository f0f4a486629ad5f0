package algebra

import (
	"fmt"

	"tlc/internal/pattern"
	"tlc/internal/physical"
	"tlc/internal/seq"
)

// Join stitches trees from two inputs under an artificial root
// (Section 2.3). With a predicate it is a value join evaluated by
// sort–merge–sort (Section 5.1); without one it is a Cartesian product —
// the state a Join created for two FOR clauses is in before the WHERE
// clause contributes its condition.
type Join struct {
	binary
	// Pred describes the value-join condition; nil means Cartesian.
	Pred *JoinPred
	// RightSpec is the mSpec of the right edge of the result pattern
	// ("-", "?", "+", "*"). Ignored for Cartesian joins (always "-").
	RightSpec pattern.MSpec
	// RootTag and RootLCL describe the artificial root node.
	RootTag string
	RootLCL int
	// ForceNestedLoop disables sort–merge–sort for equality predicates
	// (ablation benchmarks only).
	ForceNestedLoop bool
}

// JoinPred is the value predicate of a Join: content of the left class
// compared to content of the right class.
type JoinPred struct {
	LeftLCL  int
	Op       pattern.Cmp
	RightLCL int
}

// NewCartesianJoin returns a Cartesian Join of left and right.
func NewCartesianJoin(left, right Op, rootLCL int) *Join {
	j := &Join{RootTag: "join_root", RootLCL: rootLCL, RightSpec: pattern.One}
	j.Left, j.Right = left, right
	return j
}

// NewValueJoin returns a value Join of left and right.
func NewValueJoin(left, right Op, pred JoinPred, rightSpec pattern.MSpec, rootLCL int) *Join {
	j := &Join{Pred: &pred, RightSpec: rightSpec, RootTag: "join_root", RootLCL: rootLCL}
	j.Left, j.Right = left, right
	return j
}

// Label implements Op.
func (j *Join) Label() string {
	if j.Pred == nil {
		return fmt.Sprintf("Join: cartesian -> %s[%d]", j.RootTag, j.RootLCL)
	}
	return fmt.Sprintf("Join: (%d) %s (%d) {%s} -> %s[%d]",
		j.Pred.LeftLCL, j.Pred.Op, j.Pred.RightLCL, j.RightSpec, j.RootTag, j.RootLCL)
}

func (j *Join) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	if j.Pred == nil {
		if j.RightSpec.Nested() {
			return physical.NestAllJoin(ctx.GoContext(), j.RootTag, j.RootLCL, in[0], in[1])
		}
		return physical.CartesianJoin(ctx.GoContext(), j.RootTag, j.RootLCL, in[0], in[1])
	}
	return physical.ValueJoin(ctx.GoContext(), ctx.Store, in[0], in[1], physical.JoinSpec{
		LeftLCL:         j.Pred.LeftLCL,
		RightLCL:        j.Pred.RightLCL,
		Op:              j.Pred.Op,
		RightSpec:       j.RightSpec,
		RootTag:         j.RootTag,
		RootLCL:         j.RootLCL,
		ForceNestedLoop: j.ForceNestedLoop,
	})
}

var _ Op = (*Join)(nil)
var _ Op = (*Select)(nil)
var _ Op = (*Filter)(nil)
