package algebra

import (
	"testing"

	"tlc/internal/seq"
	"tlc/internal/store"
)

// TestProjectDupElimAllocsFlat holds Project and NodeIDDE to allocating
// nothing per tree: over owned trees, Project restructures each in place
// and NodeIDDE keys its seen-set on node keys, so what a call allocates
// apart from the seen-set's own table must not grow with the number of
// trees.
func TestProjectDupElimAllocsFlat(t *testing.T) {
	const runs = 20
	ctx := NewContext(store.New())
	project := NewProject(nil, 1, 2)
	dedup := NewDupElim(nil, 2)
	// extra returns the allocations per Project + NodeIDDE call over n
	// fresh trees beyond those of filling a seen-set with n entries.
	extra := func(n int) float64 {
		sets := make([]seq.Seq, runs+1) // AllocsPerRun calls once more to warm up
		for i := range sets {
			sets[i] = projectInput(ctx.arena, n)
		}
		next := 0
		ops := testing.AllocsPerRun(runs, func() {
			in := sets[next]
			next++
			out, err := project.eval(ctx, []seq.Seq{in})
			if err != nil {
				t.Fatal(err)
			}
			if out, err = dedup.eval(ctx, []seq.Seq{out}); err != nil || len(out) != n {
				t.Fatalf("NodeIDDE kept %d of %d distinct trees (%v)", len(out), n, err)
			}
		})
		table := testing.AllocsPerRun(runs, func() {
			seen := make(map[dedupEntry]struct{})
			for i := range n {
				seen[dedupEntry{{Ord: int32(i)}}] = struct{}{}
			}
		})
		return ops - table
	}
	small, large := extra(10), extra(1000)
	t.Logf("allocations beyond the seen-set: %.1f at 10 trees, %.1f at 1,000", small, large)
	if large > small+2 {
		t.Errorf("Project + NodeIDDE allocate %.1f times beyond the seen-set over 1,000 trees, %.1f over 10: something is allocated per tree", large, small)
	}
}

// projectInput builds n owned trees root(1) / mid / a(2) / text(3), so
// projecting on (1), (2) lifts a(2) under the root and drops class 3.
func projectInput(a *seq.Arena, n int) seq.Seq {
	s := a.Hold()
	defer a.Release(s)
	out := make(seq.Seq, n)
	for i := range out {
		root, mid, el, txt := s.TempElement(seq.Intern("r")), s.TempElement(seq.Intern("mid")), s.TempElement(seq.Intern("a")), s.TempText("v")
		s.Attach(root, mid)
		s.Attach(mid, el)
		s.Attach(el, txt)
		w := s.NewTree(root)
		w.AddToClass(1, root)
		w.AddToClass(2, el)
		w.AddToClass(3, txt)
		out[i] = w
	}
	return out
}
