package physical

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"tlc/internal/faultinject"
	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// JoinSpec describes a value join between two tree sequences: the content
// of the singleton left class is compared against the content of the
// singleton right class. Only equality joins use the sort–merge–sort
// algorithm of Section 5.1; other comparison operators fall back to a
// nested-loop join (the paper's implementation "does not support indices
// on join values" either).
type JoinSpec struct {
	// LeftLCL and RightLCL are the logical classes carrying the join
	// values. Both must bind to singleton sets per tree.
	LeftLCL, RightLCL int
	// Op is the comparison; EQ enables sort–merge–sort.
	Op pattern.Cmp
	// RightSpec is the mSpec of the right edge of the join's result
	// pattern: "-" pairs, "?" left-outer pairs, "+" nest, "*" outer-nest
	// (the Join operator of Section 2.3).
	RightSpec pattern.MSpec
	// RootTag and RootLCL describe the artificial root node stitched on
	// top of each output tree.
	RootTag string
	RootLCL int
	// ForceNestedLoop disables the sort–merge–sort strategy for equality
	// joins; used by the ablation benchmarks to quantify Section 5.1's
	// claim.
	ForceNestedLoop bool
}

// ValueJoin joins the two sequences according to spec, producing output
// trees in the document order of the left input (sort–merge–sort: sort by
// key, merge, then restore left order). Trees on either side whose join
// class does not bind to exactly one active node are skipped for "-"/"+"
// joins — a missing join value cannot satisfy the predicate — matching the
// semantics of value predicates over optional paths.
func ValueJoin(ctx context.Context, st *store.Store, left, right seq.Seq, spec JoinSpec) (seq.Seq, error) {
	if err := faultinject.Hit(faultinject.PointValueJoin); err != nil {
		return nil, err
	}
	tag := seq.Intern(cmp.Or(spec.RootTag, "join_root"))
	lk, err := joinKeys(st, left, spec.LeftLCL)
	if err != nil {
		return nil, fmt.Errorf("physical: value join left side: %w", err)
	}
	rk, err := joinKeys(st, right, spec.RightLCL)
	if err != nil {
		return nil, fmt.Errorf("physical: value join right side: %w", err)
	}
	var matches func(i int) []int
	if spec.Op == pattern.EQ && !spec.ForceNestedLoop {
		matches = mergeMatcher(lk, rk)
	} else {
		matches = loopMatcher(lk, rk, spec.Op)
	}
	// The operator owns its inputs. Stitching turns a left tree into the
	// output in place, so a left tree that pairs with several right trees
	// is copied for every pair but its last, which gets the original: a
	// copy taken after the original was stitched would copy the stitched
	// tree. A right tree is taken over by its first participating output
	// and copied for later ones — stitching leaves it readable.
	rightUsed := make([]bool, len(right))
	takeRight := func(j int) *seq.Tree {
		if !rightUsed[j] {
			rightUsed[j] = true
			return right[j]
		}
		return right[j].Clone()
	}
	takeLeft := func(i int, last bool) *seq.Tree {
		if last {
			return left[i]
		}
		return left[i].Clone()
	}
	var out seq.Seq
	var rights []*seq.Tree
	for i := range left {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		if lk[i].missing {
			continue
		}
		ms := matches(i)
		switch {
		case spec.RightSpec.Nested():
			if len(ms) == 0 && !spec.RightSpec.Optional() {
				continue
			}
			rights = rights[:0]
			for _, j := range ms {
				rights = append(rights, takeRight(j))
			}
			out = append(out, stitchTrees(tag, spec.RootLCL, takeLeft(i, true), rights...))
		default:
			if len(ms) == 0 {
				if spec.RightSpec.Optional() {
					out = append(out, stitchTrees(tag, spec.RootLCL, takeLeft(i, true)))
				}
				continue
			}
			for k, j := range ms {
				out = append(out, stitchTrees(tag, spec.RootLCL, takeLeft(i, k == len(ms)-1), takeRight(j)))
			}
		}
	}
	return out, nil
}

// CartesianJoin stitches every pair of left and right trees under a fresh
// root — the join created for multiple FOR clauses before any predicate is
// known (Join 5 of Figure 7 at creation time). The output is quadratic, so
// the context is polled per emitted pair: a Cartesian product under a
// deadline stops almost immediately.
func CartesianJoin(ctx context.Context, rootTag string, rootLCL int, left, right seq.Seq) (seq.Seq, error) {
	tag := seq.Intern(cmp.Or(rootTag, "join_root"))
	out := make(seq.Seq, 0, len(left)*len(right))
	for li, l := range left {
		for ri, r := range right {
			if err := poll(ctx, len(out)); err != nil {
				return nil, err
			}
			// Each pair stitches private copies, except that a tree is
			// consumed (not copied) by its last participating pair.
			lt := l
			if ri < len(right)-1 {
				lt = l.Clone()
			}
			rt := r
			if li < len(left)-1 {
				rt = r.Clone()
			}
			out = append(out, stitchTrees(tag, rootLCL, lt, rt))
		}
	}
	return out, nil
}

// NestAllJoin stitches, for every left tree, all right trees under one
// fresh root — the unconditional nest join used for uncorrelated LET
// bindings over a nested FLWOR (every binding tuple sees the whole inner
// result, clustered).
func NestAllJoin(ctx context.Context, rootTag string, rootLCL int, left, right seq.Seq) (seq.Seq, error) {
	tag := seq.Intern(cmp.Or(rootTag, "join_root"))
	stitched := 0
	out := make(seq.Seq, 0, len(left))
	rights := make([]*seq.Tree, 0, len(right))
	for li, l := range left {
		lastL := li == len(left)-1
		rights = rights[:0]
		for _, r := range right {
			if err := poll(ctx, stitched); err != nil {
				return nil, err
			}
			stitched++
			// The last left tree consumes the rights; earlier ones copy.
			rt := r
			if !lastL {
				rt = r.Clone()
			}
			rights = append(rights, rt)
		}
		out = append(out, stitchTrees(tag, rootLCL, l, rights...))
	}
	return out, nil
}

// stitchTrees builds one output tree from left in place (seq.Tree.Stitch):
// a fresh root with the left tree's root as first child and the right
// roots following, class tables merged. Callers pass only trees they own
// (their own inputs or fresh copies). The new root draws from the left tree's
// arena.
func stitchTrees(tag seq.TagID, rootLCL int, left *seq.Tree, rights ...*seq.Tree) *seq.Tree {
	a := left.Arena()
	s := a.Hold()
	left.Stitch(s, tag, rootLCL, rights)
	a.Release(s)
	return left
}

// joinKey is one tree's join values. A singleton class's one value lives
// in one, and values is a slice of it, so the common case copies nothing.
type joinKey struct {
	values  []string
	one     [1]string
	missing bool
}

// joinKeys extracts the join values of every tree: the contents of the
// class's active members. The paper's Join requires singleton classes, but
// a correlated join deferred out of a nested block carries the clustered
// class of Figure 8 (LCL 9 under a "*" edge), so the predicate is
// evaluated existentially over the member set — which is also XQuery's
// general-comparison semantics. A class binding to zero nodes yields a
// missing key: a tree without a join value cannot satisfy the predicate.
func joinKeys(st *store.Store, s seq.Seq, lcl int) ([]joinKey, error) {
	keys := make([]joinKey, len(s))
	for i, t := range s {
		members := t.Class(lcl)
		if len(members) == 0 {
			keys[i] = joinKey{missing: true}
			continue
		}
		k := &keys[i]
		if len(members) == 1 {
			k.one[0] = t.Content(st, members[0])
			k.values = k.one[:]
			continue
		}
		k.values = make([]string, len(members))
		for j, m := range members {
			k.values[j] = t.Content(st, m)
		}
	}
	return keys, nil
}

// eqKey is a join value as equality compares it (pattern.Compare): a
// number when pattern.ParseNumber accepts the value, the string otherwise,
// so "5", "5.0" and "05" are one key and "5" and "five" are two. As map
// keys, floats make +0 equal -0 and NaN equal nothing, as Compare does.
type eqKey struct {
	num   float64
	str   string
	isNum bool
}

func eqKeyOf(v string) eqKey {
	if f, ok := pattern.ParseNumber(v); ok {
		return eqKey{num: f, isNum: true}
	}
	return eqKey{str: v}
}

// mergeMatcher implements the equality phase of sort–merge–sort: the right
// side's values are grouped by typed key into value → right-index lists,
// each in ascending index order with a tree carrying one key twice listed
// once. Because the caller iterates the left side in its original order
// and we only return indexes, the final "sort back to document order" is
// implicit. Multi-valued keys match existentially: any shared value pairs
// the trees.
func mergeMatcher(lk, rk []joinKey) func(int) []int {
	groups := make(map[eqKey][]int, len(rk))
	for j, k := range rk {
		for _, v := range k.values {
			e := eqKeyOf(v)
			if g := groups[e]; len(g) == 0 || g[len(g)-1] != j {
				groups[e] = append(g, j)
			}
		}
	}
	return func(i int) []int {
		k := lk[i]
		if len(k.values) == 1 {
			// Groups are already index-sorted and deduplicated.
			return groups[eqKeyOf(k.values[0])]
		}
		var out []int
		for _, v := range k.values {
			out = append(out, groups[eqKeyOf(v)]...)
		}
		return dedupSorted(out)
	}
}

// dedupSorted sorts the index list and removes duplicates (one output per
// matching right tree, regardless of how many values matched).
func dedupSorted(in []int) []int {
	if len(in) <= 1 {
		return in
	}
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}

// loopMatcher evaluates a non-equality join predicate by nested loops,
// existentially over the value sets.
func loopMatcher(lk, rk []joinKey, op pattern.Cmp) func(int) []int {
	return func(i int) []int {
		var out []int
		for j, k := range rk {
			if k.missing {
				continue
			}
			matched := false
			for _, lv := range lk[i].values {
				for _, rv := range k.values {
					if pattern.Compare(op, lv, rv) {
						matched = true
						break
					}
				}
				if matched {
					break
				}
			}
			if matched {
				out = append(out, j)
			}
		}
		return out
	}
}
