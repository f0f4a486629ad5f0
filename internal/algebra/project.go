package algebra

import (
	"fmt"
	"strings"

	"tlc/internal/seq"
)

// Project retains, per input tree, only the nodes of the listed logical
// classes (together with their witness subtrees) under the original root
// (Section 2.3: "if the output is not a tree, the input tree root is also
// retained" — the root is always kept here, which subsumes that case).
// Dropped intermediate nodes promote their kept descendants upward, so the
// relative structure of kept nodes is preserved.
type Project struct {
	unary
	Keep []int
}

// NewProject returns a Project over in keeping the given classes.
func NewProject(in Op, keep ...int) *Project {
	p := &Project{Keep: append([]int(nil), keep...)}
	p.In = in
	return p
}

// Label implements Op.
func (p *Project) Label() string {
	parts := make([]string, len(p.Keep))
	for i, k := range p.Keep {
		parts[i] = fmt.Sprintf("(%d)", k)
	}
	return "Project: keep " + strings.Join(parts, ", ")
}

func (p *Project) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	trees := in[0]
	var buf []seq.NodeID
	for _, t := range trees {
		// The operator owns its input, so each tree is restructured in
		// place. Dropping the class bindings that are not listed matters
		// even for nodes that survive inside a kept subtree: only (12)
		// survives inside (14) in Figure 8 because it is listed in
		// Project 11.
		buf = t.Project(p.Keep, buf)
	}
	return trees, nil
}

// DupElim eliminates duplicate trees based on the identifiers of the nodes
// bound to the listed classes (Section 2.3) — the cheap NodeIDDE the
// translation inserts after projection ("all identifiers are already in
// memory"). Each listed class must bind to at most one node; an empty
// class contributes a distinguished empty key.
type DupElim struct {
	unary
	On []int
}

// NewDupElim returns an identifier-based duplicate elimination.
func NewDupElim(in Op, on ...int) *DupElim {
	d := &DupElim{On: append([]int(nil), on...)}
	d.In = in
	return d
}

// Label implements Op.
func (d *DupElim) Label() string {
	parts := make([]string, len(d.On))
	for i, k := range d.On {
		parts[i] = fmt.Sprintf("(%d)", k)
	}
	return "NodeIDDE on " + strings.Join(parts, ", ")
}

// dedupWidth is the number of node keys in one seen-set entry. A longer
// class list is folded: each full entry is numbered, and the number heads
// the next entry.
const dedupWidth = 4

// dedupEntry is one seen-set entry: the node keys of up to dedupWidth
// listed classes.
type dedupEntry [dedupWidth]seq.Key

var (
	// emptyKey stands for a class binding no node; no node has Ord -1 and
	// Temp 0.
	emptyKey = seq.Key{Ord: -1}
	// foldKey heads an entry that continues a folded one; its Temp is the
	// folded entry's number.
	foldKey = seq.Key{Ord: -2}
)

func (d *DupElim) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	seen := make(map[dedupEntry]struct{}, len(in[0]))
	var folded map[dedupEntry]int64
	out := in[0][:0]
	for _, t := range in[0] {
		var e dedupEntry
		w := 0
		for _, lcl := range d.On {
			if w == dedupWidth {
				if folded == nil {
					folded = make(map[dedupEntry]int64)
				}
				id, ok := folded[e]
				if !ok {
					id = int64(len(folded)) + 1
					folded[e] = id
				}
				e, w = dedupEntry{foldKey}, 1
				e[0].Temp = id
			}
			members := t.Class(lcl)
			switch len(members) {
			case 0:
				e[w] = emptyKey
			case 1:
				e[w] = t.Node(members[0]).Key()
			default:
				return nil, fmt.Errorf("class %d binds to %d nodes, need at most 1", lcl, len(members))
			}
			w++
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, t)
	}
	// out filters in place; the dropped trees must not stay reachable
	// through the tail of the shared backing array.
	clear(in[0][len(out):])
	return out, nil
}

var _ Op = (*Project)(nil)
var _ Op = (*DupElim)(nil)
