package algebra

import (
	"fmt"
	"slices"
	"strings"

	"tlc/internal/seq"
)

// Prune removes the nodes of the listed classes (with their subtrees) from
// every tree and drops the class bindings. The translator uses it to clean
// up the join-value copies that a nested block threads through its
// Construct for the outer Join (the "(9)" child of Construct 8 in
// Figure 8): once the Join has consumed them, they must not leak into the
// final output.
type Prune struct {
	unary
	Classes []int
}

// NewPrune returns a Prune over in.
func NewPrune(in Op, classes ...int) *Prune {
	p := &Prune{Classes: append([]int(nil), classes...)}
	p.In = in
	return p
}

// Label implements Op.
func (p *Prune) Label() string {
	parts := make([]string, len(p.Classes))
	for i, c := range p.Classes {
		parts[i] = fmt.Sprintf("(%d)", c)
	}
	return "Prune " + strings.Join(parts, ", ")
}

func (p *Prune) eval(_ *Context, in []seq.Seq) (seq.Seq, error) {
	// Prune detaches the pruned classes' members, with their subtrees,
	// from the trees it owns, in place.
	out := in[0]
	for _, t := range out {
		for _, lcl := range p.Classes {
			for _, n := range slices.Clone(t.ClassAll(lcl)) {
				t.Arena().Detach(n)
				t.Walk(n, func(m seq.NodeID) bool {
					t.RemoveFromClasses(m)
					return true
				})
			}
		}
	}
	return out, nil
}

// ClassRefs implements ClassUser.
func (p *Prune) ClassRefs() []int { return append([]int(nil), p.Classes...) }

// RemapClasses implements ClassRemapper.
func (p *Prune) RemapClasses(m map[int]int) {
	for i := range p.Classes {
		p.Classes[i] = remap(m, p.Classes[i])
	}
}

var _ Op = (*Prune)(nil)
