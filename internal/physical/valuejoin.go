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
	if spec.RootTag == "" {
		spec.RootTag = "join_root"
	}
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
	// The operator owns its unfrozen single-consumer inputs: each left tree
	// is consumed by its first emitted pair (copied only for additional
	// pairs), and each right tree by its first participating output. Frozen
	// trees are shared with other plan consumers and always copied —
	// stitching re-parents their nodes.
	rightUsed := make([]bool, len(right))
	takeRight := func(j int) *seq.Tree {
		if !rightUsed[j] {
			rightUsed[j] = true
			if !right[j].Frozen() {
				return right[j]
			}
		}
		return right[j].Clone()
	}
	var out seq.Seq
	for i := range left {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		if lk[i].missing {
			continue
		}
		ms := matches(i)
		leftUsed := false
		takeLeft := func() *seq.Tree {
			if !leftUsed {
				leftUsed = true
				if !left[i].Frozen() {
					return left[i]
				}
			}
			return left[i].Clone()
		}
		switch {
		case spec.RightSpec.Nested():
			if len(ms) == 0 && !spec.RightSpec.Optional() {
				continue
			}
			rights := make([]*seq.Tree, 0, len(ms))
			for _, j := range ms {
				rights = append(rights, takeRight(j))
			}
			out = append(out, stitchTrees(spec.RootTag, spec.RootLCL, takeLeft(), rights))
		default:
			if len(ms) == 0 {
				if spec.RightSpec.Optional() {
					out = append(out, stitchTrees(spec.RootTag, spec.RootLCL, takeLeft(), nil))
				}
				continue
			}
			// Stitching re-parents the left tree's nodes, so every pair needs
			// its own copy; takeLeft hands the original to the first pair
			// (when unfrozen) and copies for the rest.
			for _, j := range ms {
				out = append(out, stitchTrees(spec.RootTag, spec.RootLCL, takeLeft(), []*seq.Tree{takeRight(j)}))
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
	if rootTag == "" {
		rootTag = "join_root"
	}
	out := make(seq.Seq, 0, len(left)*len(right))
	for li, l := range left {
		for ri, r := range right {
			if err := poll(ctx, len(out)); err != nil {
				return nil, err
			}
			// Each pair stitches private copies, except that an unfrozen
			// tree is consumed (not copied) by its last participating pair.
			lt := l
			if ri < len(right)-1 || l.Frozen() {
				lt = l.Clone()
			}
			rt := r
			if li < len(left)-1 || r.Frozen() {
				rt = r.Clone()
			}
			out = append(out, stitchTrees(rootTag, rootLCL, lt, []*seq.Tree{rt}))
		}
	}
	return out, nil
}

// NestAllJoin stitches, for every left tree, all right trees under one
// fresh root — the unconditional nest join used for uncorrelated LET
// bindings over a nested FLWOR (every binding tuple sees the whole inner
// result, clustered).
func NestAllJoin(ctx context.Context, rootTag string, rootLCL int, left, right seq.Seq) (seq.Seq, error) {
	if rootTag == "" {
		rootTag = "join_root"
	}
	stitched := 0
	out := make(seq.Seq, 0, len(left))
	for li, l := range left {
		lastL := li == len(left)-1
		rights := make([]*seq.Tree, 0, len(right))
		for _, r := range right {
			if err := poll(ctx, stitched); err != nil {
				return nil, err
			}
			stitched++
			// The last left tree consumes unfrozen rights; earlier ones copy.
			rt := r
			if !lastL || r.Frozen() {
				rt = r.Clone()
			}
			rights = append(rights, rt)
		}
		lt := l
		if l.Frozen() {
			lt = l.Clone()
		}
		out = append(out, stitchTrees(rootTag, rootLCL, lt, rights))
	}
	return out, nil
}

// stitchTrees builds one output tree: a fresh root with the left tree's
// root as first child and the right roots following, class maps merged.
// The left tree is consumed (its nodes are re-parented, not copied), so
// callers pass only trees they own (unfrozen or freshly copied). The new
// root draws from the left tree's arena.
func stitchTrees(rootTag string, rootLCL int, left *seq.Tree, rights []*seq.Tree) *seq.Tree {
	a := left.Arena()
	root := a.TempElement(rootTag)
	t := a.NewTree(root)
	if rootLCL > 0 {
		t.AddToClass(rootLCL, root)
	}
	seq.Attach(root, left.Root)
	for _, lcl := range left.Classes() {
		for _, n := range left.ClassAll(lcl) {
			t.AddToClass(lcl, n)
		}
	}
	for _, r := range rights {
		seq.Attach(root, r.Root)
		for _, lcl := range r.Classes() {
			for _, n := range r.ClassAll(lcl) {
				t.AddToClass(lcl, n)
			}
		}
	}
	return t
}

type joinKey struct {
	values  []string
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
		vals := make([]string, len(members))
		for j, m := range members {
			vals[j] = seq.Content(st, m)
		}
		keys[i] = joinKey{values: vals}
	}
	return keys, nil
}

// mergeMatcher implements the equality phase of sort–merge–sort: the right
// side's (value, index) pairs are sorted into one run, and the run is
// grouped into the value → right-index lists the lookup probes. The run is
// sorted by (value, index), so each group comes out in ascending index
// order, and adjacent duplicates (one tree carrying the same value twice)
// are dropped while grouping. Because the caller iterates the left side in
// its original order and we only return indexes, the final "sort back to
// document order" is implicit. Multi-valued keys match existentially: any
// shared value pairs the trees.
func mergeMatcher(lk, rk []joinKey) func(int) []int {
	type entry struct {
		v string
		j int
	}
	var run []entry
	for j, k := range rk {
		for _, v := range k.values {
			run = append(run, entry{v: v, j: j})
		}
	}
	sort.Slice(run, func(a, b int) bool {
		if run[a].v != run[b].v {
			return run[a].v < run[b].v
		}
		return run[a].j < run[b].j
	})
	groups := make(map[string][]int, len(run))
	for _, e := range run {
		g := groups[e.v]
		if len(g) == 0 || g[len(g)-1] != e.j {
			groups[e.v] = append(g, e.j)
		}
	}
	return func(i int) []int {
		k := lk[i]
		if len(k.values) == 1 {
			// Groups are already index-sorted and deduplicated.
			return groups[k.values[0]]
		}
		var out []int
		for _, v := range k.values {
			out = append(out, groups[v]...)
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
	out := append([]int(nil), in...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
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
