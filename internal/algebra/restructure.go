package algebra

import (
	"fmt"
	"slices"

	"tlc/internal/seq"
)

// Flatten breaks clustered trees apart (Definition 5): for every tree and
// every pair (p, c) with p the singleton bound to PLCL and c a member of
// CLCL (a child class of p), it emits a copy of the tree retaining only c
// out of the members of CLCL — the other members and their subtrees are
// dropped. A tree whose child class is empty produces no output.
type Flatten struct {
	unary
	PLCL, CLCL int
}

// NewFlatten returns a Flatten over in.
func NewFlatten(in Op, pLCL, cLCL int) *Flatten {
	f := &Flatten{PLCL: pLCL, CLCL: cLCL}
	f.In = in
	return f
}

// Label implements Op.
func (f *Flatten) Label() string { return fmt.Sprintf("Flatten (%d, %d)", f.PLCL, f.CLCL) }

func (f *Flatten) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	var out seq.Seq
	for _, t := range in[0] {
		trees, err := breakApart(t, f.PLCL, f.CLCL, false)
		if err != nil {
			return nil, err
		}
		out = append(out, trees...)
	}
	return out, nil
}

// Shadow behaves like Flatten but retains the suppressed members as
// shadowed nodes (Definition 6): they stay in their logical class yet are
// invisible to every operator except Illuminate.
type Shadow struct {
	unary
	PLCL, CLCL int
}

// NewShadow returns a Shadow over in.
func NewShadow(in Op, pLCL, cLCL int) *Shadow {
	s := &Shadow{PLCL: pLCL, CLCL: cLCL}
	s.In = in
	return s
}

// Label implements Op.
func (s *Shadow) Label() string { return fmt.Sprintf("Shadow (%d, %d)", s.PLCL, s.CLCL) }

func (s *Shadow) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	var out seq.Seq
	for _, t := range in[0] {
		trees, err := breakApart(t, s.PLCL, s.CLCL, true)
		if err != nil {
			return nil, err
		}
		out = append(out, trees...)
	}
	return out, nil
}

// breakApart implements the common mechanics of Flatten and Shadow.
func breakApart(t *seq.Tree, pLCL, cLCL int, shadow bool) (seq.Seq, error) {
	p, err := t.SingletonID(pLCL)
	if err != nil {
		return nil, fmt.Errorf("flatten/shadow parent: %w", err)
	}
	members := t.Class(cLCL)
	for _, c := range members {
		if t.Node(c).Parent != p {
			return nil, fmt.Errorf("class %d member is not a child of the class %d node", cLCL, pLCL)
		}
	}
	if len(members) == 0 {
		return nil, nil
	}
	if len(members) == 1 {
		return seq.Seq{t}, nil
	}
	var out seq.Seq
	for i := range members {
		// Each retained member gets its own copy of the tree; the last one
		// consumes the original (t is pristine until then). A copy's class
		// lists the copies of t's members in t's order.
		nt := t
		if i < len(members)-1 {
			nt = t.Clone()
		}
		victims := slices.Clone(nt.Class(cLCL))
		a := nt.Arena()
		for j, victim := range victims {
			if j == i {
				continue
			}
			if shadow {
				a.Walk(victim, func(n seq.NodeID) bool {
					a.Node(n).Shadowed = true
					return true
				})
				continue
			}
			// Flatten removes the node, its subtree and their class
			// memberships entirely.
			a.Detach(victim)
			a.Walk(victim, func(n seq.NodeID) bool {
				nt.RemoveFromClasses(n)
				return true
			})
		}
		out = append(out, nt)
	}
	return out, nil
}

// Illuminate re-activates the shadowed members of a logical class and
// their subtrees (Definition 7). It never changes the number of trees.
type Illuminate struct {
	unary
	LCL int
}

// NewIlluminate returns an Illuminate over in.
func NewIlluminate(in Op, lcl int) *Illuminate {
	i := &Illuminate{LCL: lcl}
	i.In = in
	return i
}

// Label implements Op.
func (i *Illuminate) Label() string { return fmt.Sprintf("Illuminate (%d)", i.LCL) }

func (i *Illuminate) eval(_ *Context, in []seq.Seq) (seq.Seq, error) {
	// Illuminate flips flags in place on trees this operator owns — which
	// is precisely why replacing a re-matching Select with an Illuminate
	// pays off (Section 4.3).
	out := in[0]
	for _, t := range out {
		a := t.Arena()
		for _, n := range t.ClassAll(i.LCL) {
			if !a.Node(n).Shadowed {
				continue
			}
			a.Walk(n, func(m seq.NodeID) bool {
				a.Node(m).Shadowed = false
				return true
			})
		}
	}
	return out, nil
}

var _ Op = (*Flatten)(nil)
var _ Op = (*Shadow)(nil)
var _ Op = (*Illuminate)(nil)
