package algebra

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tlc/internal/seq"
)

// TestDAGSplitIsolation is the copy-on-write contract test: when one
// subplan feeds two consumers (fan-out > 1 in the DAG), a consumer that
// mutates its input — Prune detaches nodes and drops class bindings — must
// never affect what the sibling consumer sees. The shared Select feeds
// both a Prune of the bidder class and an Aggregate counting that same
// class. The Aggregate runs after the Prune (evaluation is input order),
// so a leak makes every count 0; isolation keeps the counts {3, 1, 0}.
// The merge grafts all counts onto each tree (the select's trees share the
// document root), which doesn't matter for what's being tested. The
// parallelism=N cases evaluate the one plan DAG N times at once, so under
// -race a run that mutates shared plan or store state is also a data race.
func TestDAGSplitIsolation(t *testing.T) {
	s := loadAuction(t)
	shared := auctionSelect()
	pruned := NewPrune(shared, 5)
	counted := NewAggregate(shared, Count, 5, 11)
	merged := NewMerge(pruned, counted)
	check := func(t *testing.T) {
		out, err := Run(s, merged)
		if err != nil {
			t.Error(err)
			return
		}
		if len(out) != 3 {
			t.Errorf("%d trees, want 3", len(out))
			return
		}
		for ti, w := range out {
			got := map[string]int{}
			for _, cnt := range w.ClassAll(11) {
				got[seq.Content(s, cnt)]++
			}
			want := map[string]int{"3": 1, "1": 1, "0": 1}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("tree %d: bidder counts %v, want one each of 3/1/0 — the Prune branch leaked into the Aggregate branch", ti, got)
					return
				}
			}
		}
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < par; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					check(t)
				}()
			}
			wg.Wait()
		})
	}
}

// TestDAGSplitFrozenInputPreserved pins the other half of the contract:
// the shared sequence itself must come out of the evaluation unchanged,
// because the memo keeps handing aliases of it to later consumers.
func TestDAGSplitFrozenInputPreserved(t *testing.T) {
	s := loadAuction(t)
	shared := auctionSelect()
	base, err := Run(s, shared)
	if err != nil {
		t.Fatal(err)
	}
	wantBidders := make([]int, len(base))
	for i, w := range base {
		wantBidders[i] = len(w.ClassAll(5))
	}

	pruned := NewPrune(shared, 5)
	counted := NewAggregate(shared, Count, 5, 11)
	merged := NewMerge(pruned, counted)
	ctx := NewContext(s)
	if _, err := Eval(ctx, merged); err != nil {
		t.Fatal(err)
	}
	memo, ok := ctx.memo[shared]
	if !ok {
		t.Fatal("shared subplan was not memoized despite fan-out 2")
	}
	for i, w := range memo {
		if !w.Frozen() {
			t.Error("memoized shared tree is not frozen")
		}
		if got := len(w.ClassAll(5)); got != wantBidders[i] {
			t.Errorf("tree %d: shared input mutated: %d bidders bound, want %d", i, got, wantBidders[i])
		}
	}

	// Project restructures the trees it owns in place: over a frozen
	// sequence with two consumers it must copy first, and leave the
	// shared trees — structure and class table — as they were.
	wantShape := make([]string, len(base))
	for i, w := range base {
		wantShape[i] = treeShape(w)
	}
	ctx = NewContext(s)
	both := NewMerge(NewProject(shared, 5), NewProject(shared, 4))
	if _, err := Eval(ctx, both); err != nil {
		t.Fatal(err)
	}
	memo, ok = ctx.memo[shared]
	if !ok || len(memo) != len(base) {
		t.Fatal("shared subplan was not memoized despite fan-out 2")
	}
	for i, w := range memo {
		if got := treeShape(w); got != wantShape[i] {
			t.Errorf("tree %d: Project mutated the shared input:\n got %s\nwant %s", i, got, wantShape[i])
		}
	}
}

// treeShape renders a tree's structure and class table by node keys.
func treeShape(w *seq.Tree) string {
	var sb strings.Builder
	w.Root.Walk(func(n *seq.Node) bool {
		var parent seq.Key
		if n.Parent != nil {
			parent = n.Parent.Key()
		}
		fmt.Fprintf(&sb, "%v<%v:%d ", n.Key(), parent, len(n.Kids))
		return true
	})
	for _, lcl := range w.Classes() {
		fmt.Fprintf(&sb, "(%d)", lcl)
		for _, m := range w.ClassAll(lcl) {
			fmt.Fprintf(&sb, " %v", m.Key())
		}
	}
	return sb.String()
}
