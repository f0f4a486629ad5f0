package algebra

import (
	"fmt"
	"strings"

	"tlc/internal/physical"
	"tlc/internal/seq"
)

// Materialize copies the full stored subtree of every node bound to the
// listed classes into the intermediate result. TLC never needs this
// operator — its Construct materializes at the very end — but the TAX
// baseline materializes the subtrees of all bound variables right after
// its first selection (Section 6.1), which is one of the costs the paper
// charges it for.
type Materialize struct {
	unary
	Classes []int
}

// NewMaterialize returns a Materialize over in.
func NewMaterialize(in Op, classes ...int) *Materialize {
	m := &Materialize{Classes: append([]int(nil), classes...)}
	m.In = in
	return m
}

// Label implements Op.
func (m *Materialize) Label() string {
	parts := make([]string, len(m.Classes))
	for i, c := range m.Classes {
		parts[i] = fmt.Sprintf("(%d)", c)
	}
	return "Materialize " + strings.Join(parts, ", ")
}

func (m *Materialize) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	// In-place expansion keeps the already-matched witness kids (and their
	// class memberships) while pulling in the rest of the stored subtree.
	out := in[0]
	for _, t := range out {
		for _, lcl := range m.Classes {
			for _, n := range t.Class(lcl) {
				seq.ExpandInPlaceIn(t.Arena(), ctx.Store, n)
			}
		}
	}
	return out, nil
}

// GroupByOp exposes the grouping procedure (flat match + group-by) that
// TAX and GTP use instead of nest-joins; see physical.GroupBy. Exclude
// lists the class labels of the grouped branch, which must not take part
// in the grouping key.
type GroupByOp struct {
	unary
	BasisLCL, MemberLCL int
	Exclude             []int
}

// NewGroupBy returns a GroupByOp over in.
func NewGroupBy(in Op, basis, member int, exclude ...int) *GroupByOp {
	g := &GroupByOp{BasisLCL: basis, MemberLCL: member, Exclude: append([]int(nil), exclude...)}
	g.In = in
	return g
}

// Label implements Op.
func (g *GroupByOp) Label() string {
	return fmt.Sprintf("GroupBy: basis (%d), members (%d)", g.BasisLCL, g.MemberLCL)
}

func (g *GroupByOp) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	return physical.GroupBy(ctx.GoContext(), ctx.Store, in[0], g.BasisLCL, g.MemberLCL, g.Exclude)
}

var _ Op = (*Materialize)(nil)
var _ Op = (*GroupByOp)(nil)
