package algebra

import (
	"fmt"
	"strings"

	"tlc/internal/pattern"
	"tlc/internal/seq"
)

// FilterCompare keeps the trees in which the content of a node bound to
// LLCL compares against the content of a node bound to RLCL, existentially
// over the member sets (general-comparison semantics, consistent with the
// value join). It covers value-join predicates that cannot be folded into
// a Join operator (e.g. a second predicate over an already-joined pair).
// Trees where either class is empty fail the predicate.
type FilterCompare struct {
	unary
	LLCL int
	Op   pattern.Cmp
	RLCL int
}

// NewFilterCompare returns a FilterCompare over in.
func NewFilterCompare(in Op, llcl int, op pattern.Cmp, rlcl int) *FilterCompare {
	f := &FilterCompare{LLCL: llcl, Op: op, RLCL: rlcl}
	f.In = in
	return f
}

// Label implements Op.
func (f *FilterCompare) Label() string {
	return fmt.Sprintf("FilterCompare: (%d) %s (%d)", f.LLCL, f.Op, f.RLCL)
}

func (f *FilterCompare) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	var out seq.Seq
	for _, t := range in[0] {
		l := t.Class(f.LLCL)
		r := t.Class(f.RLCL)
		pass := false
		for _, ln := range l {
			lc := seq.Content(ctx.Store, ln)
			for _, rn := range r {
				if pattern.Compare(f.Op, lc, seq.Content(ctx.Store, rn)) {
					pass = true
					break
				}
			}
			if pass {
				break
			}
		}
		if pass {
			out = append(out, t)
		}
	}
	return out, nil
}

// FilterBranch is one disjunct of a DisjFilter.
type FilterBranch struct {
	LCL  int
	Pred pattern.Predicate
	Mode FilterMode
}

// DisjFilter keeps trees satisfying at least one branch — the plan-level
// treatment of OR-expressions: each disjunct's path is matched with
// optional edges and the disjunction is decided here, instead of the
// UNION-of-plans formulation, which produces the same trees without
// duplicating the block plan.
type DisjFilter struct {
	unary
	Branches []FilterBranch
}

// NewDisjFilter returns a DisjFilter over in.
func NewDisjFilter(in Op, branches ...FilterBranch) *DisjFilter {
	f := &DisjFilter{Branches: append([]FilterBranch(nil), branches...)}
	f.In = in
	return f
}

// Label implements Op.
func (f *DisjFilter) Label() string {
	parts := make([]string, len(f.Branches))
	for i, b := range f.Branches {
		parts[i] = fmt.Sprintf("%s (%d)%s", b.Mode, b.LCL, b.Pred.String())
	}
	return "Filter: " + strings.Join(parts, " OR ")
}

func (f *DisjFilter) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	var out seq.Seq
	for _, t := range in[0] {
		pass := false
		for _, b := range f.Branches {
			members := t.Class(b.LCL)
			hold := 0
			for _, n := range members {
				if b.Pred.Eval(seq.Content(ctx.Store, n)) {
					hold++
				}
			}
			switch b.Mode {
			case Every:
				// For a disjunct, an empty class is a non-match rather than
				// vacuous truth: OR semantics require a witness.
				pass = len(members) > 0 && hold == len(members)
			case AtLeastOne:
				pass = hold >= 1
			case ExactlyOne:
				pass = hold == 1
			case NoneOf:
				// A negated disjunct: the branch holds when no class member
				// satisfies the predicate — including the empty class (the
				// negated path simply being absent).
				pass = hold == 0
			}
			if pass {
				break
			}
		}
		if pass {
			out = append(out, t)
		}
	}
	return out, nil
}

var _ Op = (*FilterCompare)(nil)
var _ Op = (*DisjFilter)(nil)
