package algebra

import (
	"fmt"
	"sort"
	"strings"

	"tlc/internal/pattern"
	"tlc/internal/seq"
)

// SortKey is one ORDER BY key: the content of the singleton node bound to
// LCL, compared numerically when both values parse as numbers.
type SortKey struct {
	LCL        int
	Descending bool
}

// Sort orders the sequence by the given keys (Section 2.3 / the
// OrderClause case of Figure 6). Trees whose key class is empty sort after
// all keyed trees, preserving their relative order; the sort is stable.
type Sort struct {
	unary
	Keys []SortKey
}

// NewSort returns a Sort over in.
func NewSort(in Op, keys ...SortKey) *Sort {
	s := &Sort{Keys: append([]SortKey(nil), keys...)}
	s.In = in
	return s
}

// Label implements Op.
func (s *Sort) Label() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		dir := "asc"
		if k.Descending {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("(%d) %s", k.LCL, dir)
	}
	return "Sort: " + strings.Join(parts, ", ")
}

func (s *Sort) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	type keyed struct {
		tree *seq.Tree
		keys []sortVal
	}
	rows := make([]keyed, len(in[0]))
	for i, t := range in[0] {
		ks := make([]sortVal, len(s.Keys))
		for j, k := range s.Keys {
			members := t.Class(k.LCL)
			if len(members) == 0 {
				ks[j] = sortVal{missing: true}
				continue
			}
			ks[j] = newSortVal(t.Content(ctx.Store, members[0]))
		}
		rows[i] = keyed{tree: t, keys: ks}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for j, k := range s.Keys {
			c := rows[a].keys[j].compare(rows[b].keys[j])
			if c == 0 {
				continue
			}
			if k.Descending {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make(seq.Seq, len(rows))
	for i, r := range rows {
		out[i] = r.tree
	}
	return out, nil
}

// sortVal is a comparison key with numeric-aware semantics.
type sortVal struct {
	raw     string
	num     float64
	isNum   bool
	missing bool
}

func newSortVal(s string) sortVal {
	if f, ok := pattern.ParseNumber(s); ok {
		return sortVal{raw: s, num: f, isNum: true}
	}
	return sortVal{raw: s}
}

func (v sortVal) compare(o sortVal) int {
	switch {
	case v.missing && o.missing:
		return 0
	case v.missing:
		return 1
	case o.missing:
		return -1
	}
	if v.isNum && o.isNum {
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(v.raw, o.raw)
}

var _ Op = (*Sort)(nil)
