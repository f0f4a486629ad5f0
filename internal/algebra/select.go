package algebra

import (
	"fmt"

	"tlc/internal/pattern"
	"tlc/internal/seq"
)

// Select performs an annotated pattern tree match (Section 2.3). A Select
// whose pattern is rooted at a document-root test is a plan leaf reading
// from the store; a Select whose pattern is anchored at a logical class is
// an extension select re-using an earlier match (Section 4.1) and takes one
// input.
type Select struct {
	unary
	APT *pattern.Tree
}

// NewSelect returns a document-rooted Select leaf.
func NewSelect(apt *pattern.Tree) *Select {
	return &Select{APT: apt}
}

// NewExtendSelect returns an extension Select over in.
func NewExtendSelect(in Op, apt *pattern.Tree) *Select {
	s := &Select{APT: apt}
	s.In = in
	return s
}

// Label implements Op.
func (s *Select) Label() string {
	if s.APT == nil {
		return "Select (no pattern)"
	}
	return "Select\n" + s.APT.String()
}

func (s *Select) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	if s.APT == nil || s.APT.Root == nil {
		return nil, fmt.Errorf("select without a pattern")
	}
	if s.APT.Root.Kind == pattern.TestLC {
		if len(in) != 1 {
			return nil, fmt.Errorf("extension select needs exactly one input, has %d", len(in))
		}
		return ctx.Matcher.MatchExtend(ctx.GoContext(), in[0], s.APT)
	}
	if len(in) != 0 {
		return nil, fmt.Errorf("document select takes no input, has %d", len(in))
	}
	return ctx.Matcher.MatchDocument(ctx.GoContext(), s.APT)
}

// Filter restricts a sequence to the trees whose logical class LCL
// satisfies predicate Pred under the given quantification mode
// (Section 2.3). The default mode Every passes trees whose class is empty,
// per the paper's footnote on Every semantics.
type Filter struct {
	unary
	LCL  int
	Pred pattern.Predicate
	Mode FilterMode
}

// FilterMode is the quantification mode of a Filter.
type FilterMode uint8

// Filter modes.
const (
	// Every requires the predicate to hold at all members (vacuously true
	// for an empty class).
	Every FilterMode = iota
	// AtLeastOne requires the predicate at one or more members.
	AtLeastOne
	// ExactlyOne requires the predicate at exactly one member.
	ExactlyOne
	// NoneOf requires the predicate to fail at every member (vacuously
	// true for an empty class) — the complement of AtLeastOne, used for
	// negated predicates.
	NoneOf
)

// String renders the mode.
func (m FilterMode) String() string {
	switch m {
	case Every:
		return "EVERY"
	case AtLeastOne:
		return "ALO"
	case NoneOf:
		return "NONE"
	default:
		return "EX"
	}
}

// NewFilter returns a Filter over in.
func NewFilter(in Op, lcl int, pred pattern.Predicate, mode FilterMode) *Filter {
	f := &Filter{LCL: lcl, Pred: pred, Mode: mode}
	f.In = in
	return f
}

// Label implements Op.
func (f *Filter) Label() string {
	return fmt.Sprintf("Filter: %s (%d)%s", f.Mode, f.LCL, f.Pred.String())
}

func (f *Filter) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	var out seq.Seq
	for _, t := range in[0] {
		hold := 0
		members := t.Class(f.LCL)
		for _, n := range members {
			if f.Pred.Eval(t.Content(ctx.Store, n)) {
				hold++
			}
		}
		keep := false
		switch f.Mode {
		case Every:
			keep = hold == len(members)
		case AtLeastOne:
			keep = hold >= 1
		case ExactlyOne:
			keep = hold == 1
		case NoneOf:
			keep = hold == 0
		}
		if keep {
			out = append(out, t)
		}
	}
	return out, nil
}
