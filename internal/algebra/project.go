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
	out := make(seq.Seq, 0, len(in[0]))
	for _, t := range in[0] {
		out = append(out, projectTree(t, p.Keep))
	}
	return out, nil
}

// projectTree restructures the tree in place when the operator owns it
// (unfrozen single-consumer input; frozen shared trees are copied first):
// kept nodes move — with their witness subtrees — under their nearest kept
// ancestor (the original root when none), and a fresh class map restricted
// to the kept labels replaces the old one. Dropping the class bindings
// that are not listed matters even for nodes that survive inside a kept
// subtree: only (12) survives inside (14) in Figure 8 because it is listed
// in Project 11.
func projectTree(t *seq.Tree, rawKeep []int) *seq.Tree {
	t = t.Mutable()
	// Deduplicate the keep list: rewrites may append labels that are
	// already kept, and double registration would corrupt class counts.
	seen := make(map[int]bool, len(rawKeep))
	keep := rawKeep[:0:0]
	for _, lcl := range rawKeep {
		if !seen[lcl] {
			seen[lcl] = true
			keep = append(keep, lcl)
		}
	}
	kept := make(map[*seq.Node]bool)
	for _, lcl := range keep {
		for _, n := range t.ClassAll(lcl) {
			kept[n] = true
		}
	}
	// Collect the top-level kept nodes: walking stops at a kept node, so
	// kept nodes inside kept subtrees simply stay where they are.
	var tops []*seq.Node
	var walk func(n *seq.Node)
	walk = func(n *seq.Node) {
		for _, k := range n.Kids {
			if kept[k] {
				tops = append(tops, k)
				continue
			}
			walk(k)
		}
	}
	root := t.Root
	walk(root)
	root.Kids = nil
	nt := t.Arena().NewTree(root)
	for _, n := range tops {
		seq.Attach(root, n)
	}
	for _, lcl := range keep {
		for _, n := range t.ClassAll(lcl) {
			nt.AddToClass(lcl, n)
		}
	}
	return nt
}

// DupElim eliminates duplicate trees based on the nodes bound to the listed
// classes (Section 2.3). With ByContent unset it compares node identifiers
// — the cheap NodeIDDE the translation inserts after projection ("all
// identifiers are already in memory") — otherwise it compares content.
// Each listed class must bind to at most one node; an empty class
// contributes a distinguished empty key.
type DupElim struct {
	unary
	On        []int
	ByContent bool
}

// NewDupElim returns an identifier-based duplicate elimination.
func NewDupElim(in Op, on ...int) *DupElim {
	d := &DupElim{On: append([]int(nil), on...)}
	d.In = in
	return d
}

// NewDupElimContent returns a content-based duplicate elimination.
func NewDupElimContent(in Op, on ...int) *DupElim {
	d := NewDupElim(in, on...)
	d.ByContent = true
	return d
}

// Label implements Op.
func (d *DupElim) Label() string {
	kind := "NodeIDDE"
	if d.ByContent {
		kind = "ContentDE"
	}
	parts := make([]string, len(d.On))
	for i, k := range d.On {
		parts[i] = fmt.Sprintf("(%d)", k)
	}
	return kind + " on " + strings.Join(parts, ", ")
}

func (d *DupElim) eval(ctx *Context, in []seq.Seq) (seq.Seq, error) {
	seen := make(map[string]bool)
	var out seq.Seq
	for _, t := range in[0] {
		var key strings.Builder
		for _, lcl := range d.On {
			members := t.Class(lcl)
			switch len(members) {
			case 0:
				key.WriteString("|∅")
			case 1:
				if d.ByContent {
					key.WriteString("|" + seq.Content(ctx.Store, members[0]))
				} else {
					key.WriteString("|" + members[0].Identity())
				}
			default:
				return nil, fmt.Errorf("class %d binds to %d nodes, need at most 1", lcl, len(members))
			}
		}
		k := key.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	return out, nil
}

var _ Op = (*Project)(nil)
var _ Op = (*DupElim)(nil)
