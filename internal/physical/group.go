package physical

import (
	"context"
	"encoding/binary"
	"fmt"

	"tlc/internal/seq"
	"tlc/internal/store"
)

// GroupBy implements the grouping procedure that the TAX and GTP baselines
// use in place of annotated edges (Section 6.1): the input trees are
// partitioned by the identity of everything *except* the grouped branch —
// the tree root, the basis node, and every other class binding (minus the
// labels listed in exclude, the grouped branch's own classes) — and each
// group collapses into a single output tree in which the member nodes
// (class memberLCL) of every group member are gathered under the shared
// basis node. The first tree of each group supplies the output structure.
//
// This is deliberately more expensive than a nest-join: it hashes every
// tree over all its bindings, clones member subtrees across trees, and —
// unlike the nest-join — runs *after* a flat match has already multiplied
// the intermediate result.
func GroupBy(ctx context.Context, st *store.Store, input seq.Seq, basisLCL, memberLCL int, exclude []int) (seq.Seq, error) {
	excluded := make(map[int]bool, len(exclude)+2)
	for _, lcl := range exclude {
		excluded[lcl] = true
	}
	excluded[basisLCL] = true
	excluded[memberLCL] = true
	type group struct {
		tree  *seq.Tree
		basis seq.NodeID
	}
	groups := make(map[string]*group)
	var order []*group
	var key []byte
	for i, t := range input {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		members := t.Class(basisLCL)
		if len(members) == 0 {
			// No basis to group on: the tree forms its own group.
			order = append(order, &group{tree: t})
			continue
		}
		if len(members) > 1 {
			return nil, fmt.Errorf("physical: group basis class %d binds to %d nodes", basisLCL, len(members))
		}
		b := members[0]
		key = groupKey(key[:0], t, b, excluded)
		g, ok := groups[string(key)]
		if !ok {
			// The first tree of a group becomes the representative and
			// takes in the members of the later ones.
			g = &group{tree: t, basis: b}
			groups[string(key)] = g
			order = append(order, g)
			continue
		}
		// Merge this tree's member nodes into the group representative: the
		// tree is consumed, its member subtrees move over.
		a := g.tree.Arena()
		rev := make(map[seq.NodeID][]int)
		for _, lcl := range t.Classes() {
			if lcl == memberLCL {
				continue
			}
			for _, n := range t.ClassAll(lcl) {
				rev[n] = append(rev[n], lcl)
			}
		}
		for _, m := range t.Class(memberLCL) {
			a.Detach(m)
			a.Attach(g.basis, m)
			g.tree.AddToClass(memberLCL, m)
			// Nested classes inside the member subtree follow along.
			a.Walk(m, func(n seq.NodeID) bool {
				for _, lcl := range rev[n] {
					g.tree.AddToClass(lcl, n)
				}
				return true
			})
		}
	}
	out := make(seq.Seq, 0, len(order))
	for _, g := range order {
		out = append(out, g.tree)
	}
	return out, nil
}

// groupKey appends to key the grouping key — root identity, basis
// identity, and the identities of every class binding not excluded, in
// label order.
// Flat-multiplication clones agree on all of these (clones preserve node
// keys, differing only in the grouped branch), while genuinely distinct
// witnesses differ in at least one other binding.
func groupKey(key []byte, t *seq.Tree, basis seq.NodeID, excluded map[int]bool) []byte {
	key = appendKey(key, t.Node(t.Root).Key())
	key = appendKey(key, t.Node(basis).Key())
	for _, lcl := range t.Classes() {
		if excluded[lcl] {
			continue
		}
		members := t.Class(lcl)
		if len(members) == 0 {
			continue
		}
		key = binary.LittleEndian.AppendUint64(key, uint64(lcl))
		key = binary.LittleEndian.AppendUint32(key, uint32(len(members)))
		if len(members) <= 2 {
			for _, n := range members {
				key = appendKey(key, t.Node(n).Key())
			}
			continue
		}
		// Already-clustered classes (an earlier grouping round) are
		// summarized by size and endpoints: a real grouping implementation
		// operates per split path and never hashes a sibling cluster
		// member-by-member.
		key = appendKey(key, t.Node(members[0]).Key())
		key = appendKey(key, t.Node(members[len(members)-1]).Key())
	}
	return key
}

// appendKey appends the fixed-size encoding of a node key.
func appendKey(b []byte, k seq.Key) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Doc))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Ord))
	return binary.LittleEndian.AppendUint64(b, uint64(k.Temp))
}
