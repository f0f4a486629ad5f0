package physical

import (
	"context"
	"fmt"

	"tlc/internal/seq"
	"tlc/internal/store"
)

// IdentityMergeJoin joins two sequences on node identity: a left tree
// pairs with every right tree whose node bound to rightLCL references the
// same underlying node as the left tree's leftLCL binding. For each pair,
// the right anchor's attached branches (its witness kids) are grafted
// under the left anchor and the right tree's classes carried over.
//
// This is the "join on the bound variables" the TAX baseline performs to
// stitch the RETURN-clause path selections back onto the FOR/WHERE part
// (Section 6.1): the re-matched paths are reconciled with the already
// bound nodes by identity. Left trees without a partner pass through
// unchanged (the re-matched path may be optional); identifiers are already
// in memory, so the join itself is cheap — the cost TAX pays is the fresh
// pattern match producing the right side.
func IdentityMergeJoin(ctx context.Context, st *store.Store, left, right seq.Seq, leftLCL, rightLCL int) (seq.Seq, error) {
	byID := make(map[seq.Key][]*seq.Tree, len(right))
	for _, r := range right {
		a, err := r.Singleton(rightLCL)
		if err != nil {
			return nil, fmt.Errorf("physical: identity join right side: %w", err)
		}
		byID[a.Key()] = append(byID[a.Key()], r)
	}
	// takeRight consumes a right tree on first use (grafting re-parents its
	// anchor's branches); later uses are copied. A right tree may partner
	// several left trees (same identity). A copy's class table lists the
	// copies of the original's members in the same order.
	usedRight := make(map[*seq.Tree]bool, len(right))
	takeRight := func(r *seq.Tree) *seq.Tree {
		if !usedRight[r] {
			usedRight[r] = true
			return r
		}
		return r.Clone()
	}
	var out seq.Seq
	for i, l := range left {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		members := l.Class(leftLCL)
		if len(members) != 1 {
			// No (or ambiguous) anchor: nothing to merge onto.
			out = append(out, l)
			continue
		}
		partners := byID[l.Node(members[0]).Key()]
		if len(partners) == 0 {
			out = append(out, l)
			continue
		}
		for pi, r := range partners {
			// Copy the left per pair; its last pair consumes it.
			nt := l
			if pi < len(partners)-1 {
				nt = l.Clone()
			}
			anchor := nt.Class(leftLCL)[0]
			rc := takeRight(r)
			ra, err := rc.SingletonID(rightLCL)
			if err != nil {
				return nil, fmt.Errorf("physical: identity join right side: %w", err)
			}
			for _, k := range rc.Kids(ra) {
				nt.Arena().Attach(anchor, k)
			}
			for _, lcl := range rc.Classes() {
				if lcl == rightLCL {
					continue // the anchor itself is already bound on the left
				}
				for _, n := range rc.ClassAll(lcl) {
					if n == ra {
						n = anchor
					}
					nt.AddToClass(lcl, n)
				}
			}
			out = append(out, nt)
		}
	}
	return out, nil
}
