package physical

import (
	"context"
	"fmt"
	"sort"

	"tlc/internal/faultinject"
	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// StructuralJoin joins two tree sequences on a structural relationship
// (Definition 8 and its variants). The node bound to leftLCL in each left
// tree (a singleton) is tested against the root of each right tree; right
// trees standing in the required relationship are stitched under the left
// class node. The edge specification selects the variant exactly as in
// Section 5.2:
//
//	"-"  regular structural join: one output per matching pair
//	"?"  left-outer structural join
//	"+"  nest-structural-join: one output per left tree, all matches
//	"*"  left-outer-nest-structural-join
//
// Both the left class node and the right roots must reference stored nodes
// of the same document; structural predicates are undefined on temporary
// nodes (Section 5.1, property 2 is not required of temporaries).
func StructuralJoin(ctx context.Context, st *store.Store, left, right seq.Seq, leftLCL int, axis pattern.Axis, spec pattern.MSpec) (seq.Seq, error) {
	if err := faultinject.Hit(faultinject.PointStructJoin); err != nil {
		return nil, err
	}
	// Index right trees by root ordinal; right sequences are in document
	// order, so containment is a binary-search range scan.
	type rentry struct {
		tree *seq.Tree
		root *seq.Node
		used bool
	}
	rents := make([]*rentry, 0, len(right))
	var prevOrd int32 = -1
	for _, r := range right {
		root := r.Node(r.Root)
		if !root.IsStore() {
			return nil, fmt.Errorf("physical: structural join right root is a temporary node")
		}
		if root.Ord < prevOrd {
			return nil, fmt.Errorf("physical: structural join right input not in document order")
		}
		prevOrd = root.Ord
		rents = append(rents, &rentry{tree: r, root: root})
	}
	// takeRight consumes a right tree: the original on first use, a private
	// copy once it is used — stitching re-parents its root.
	takeRight := func(e *rentry) *seq.Tree {
		if !e.used {
			e.used = true
			return e.tree
		}
		return e.tree.Clone()
	}
	var out seq.Seq
	for i, l := range left {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		anchor, err := l.Singleton(leftLCL)
		if err != nil {
			return nil, fmt.Errorf("physical: structural join left side: %w", err)
		}
		if !anchor.IsStore() {
			return nil, fmt.Errorf("physical: structural join left anchor is a temporary node")
		}
		d := st.Doc(anchor.Doc)
		aStart, aEnd, aLevel := d.Start(anchor.Ord), d.End(anchor.Ord), d.Level(anchor.Ord)
		lo := sort.Search(len(rents), func(i int) bool { return rents[i].root.Ord >= aStart+1 })
		hi := sort.Search(len(rents), func(i int) bool { return rents[i].root.Ord >= aEnd+1 })
		var ms []*rentry
		for _, e := range rents[lo:hi] {
			if e.root.Doc != anchor.Doc {
				continue
			}
			if axis == pattern.Child && d.Level(e.root.Ord) != aLevel+1 {
				continue
			}
			ms = append(ms, e)
		}
		// emit grafts the rights under the left tree's anchor; a right tree
		// of another arena is copied into the left's first.
		emit := func(l *seq.Tree, rights []*seq.Tree) {
			a, anchor := l.Arena(), l.Class(leftLCL)[0]
			s := a.Hold()
			defer a.Release(s)
			for _, r := range rights {
				r = s.Import(r)
				a.Attach(anchor, r.Root)
				for _, lcl := range r.Classes() {
					for _, n := range r.ClassAll(lcl) {
						l.AddToClass(lcl, n)
					}
				}
			}
			out = append(out, l)
		}
		switch {
		case spec.Nested():
			if len(ms) == 0 && !spec.Optional() {
				continue
			}
			rights := make([]*seq.Tree, 0, len(ms))
			for _, e := range ms {
				rights = append(rights, takeRight(e))
			}
			emit(l, rights)
		default:
			if len(ms) == 0 {
				if spec.Optional() {
					emit(l, nil) // no rights: nothing mutated
				}
				continue
			}
			for i, e := range ms {
				lt := l
				if i < len(ms)-1 {
					// Copy the left for all but the last pair.
					lt = l.Clone()
				}
				emit(lt, []*seq.Tree{takeRight(e)})
			}
		}
	}
	return out, nil
}
