package algebra

import (
	"fmt"

	"tlc/internal/physical"
	"tlc/internal/seq"
)

// IdentityJoinOp stitches re-matched path selections back onto already
// bound nodes by node identity — the RETURN-clause join of TAX plans; see
// physical.IdentityMergeJoin.
type IdentityJoinOp struct {
	binary
	LeftLCL, RightLCL int
}

// NewIdentityJoin returns an identity join of left and right.
func NewIdentityJoin(left, right Op, leftLCL, rightLCL int) *IdentityJoinOp {
	j := &IdentityJoinOp{LeftLCL: leftLCL, RightLCL: rightLCL}
	j.Left, j.Right = left, right
	return j
}

// Label implements Op.
func (j *IdentityJoinOp) Label() string {
	return fmt.Sprintf("IdentityJoin: (%d) == (%d)", j.LeftLCL, j.RightLCL)
}

func (j *IdentityJoinOp) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	return physical.IdentityMergeJoin(ctx.GoContext(), ctx.Store, in[0], in[1], j.LeftLCL, j.RightLCL)
}

var _ Op = (*IdentityJoinOp)(nil)
