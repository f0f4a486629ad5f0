package tlc

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/physical"
	"tlc/internal/seq"
	"tlc/internal/store"
)

const pointQuery = `
FOR $p IN document("auction.xml")//person
WHERE $p/@id = "person7"
RETURN $p/name`

// pointPattern is //person[@id="person7"]/name as the pattern a path with a
// predicate compiles to (the query language has no bracket syntax).
func pointPattern() *pattern.Tree {
	root := pattern.NewDocRoot(1, "auction.xml")
	person := root.Add(pattern.NewTagNode(2, "person"), pattern.Descendant, pattern.One)
	id := person.Add(pattern.NewTagNode(3, "@id"), pattern.Child, pattern.One)
	id.Pred = &pattern.Predicate{Op: pattern.EQ, Value: "person7"}
	person.Add(pattern.NewTagNode(4, "name"), pattern.Child, pattern.One)
	return &pattern.Tree{Root: root}
}

// countNodes counts the witness nodes of trees.
func countNodes(trees seq.Seq) int {
	n := 0
	for _, t := range trees {
		t.Walk(t.Root, func(seq.NodeID) bool { n++; return true })
	}
	return n
}

// answerNodes counts the nodes a client receives for the answer trees: a
// store reference stands for its whole stored subtree.
func answerNodes(st *store.Store, trees seq.Seq) int {
	n := 0
	for _, t := range trees {
		t.Walk(t.Root, func(id seq.NodeID) bool {
			if x := t.Node(id); x.IsStore() && !x.Full {
				n += st.Doc(x.Doc).SubtreeSize(x.Ord)
				return false
			}
			n++
			return true
		})
	}
	return n
}

// TestMatchCostFollowsAnswer is the gate of the ordinal-first match kernel:
// a point lookup — one person out of all of them, by @id — builds witness
// nodes for its answer and nothing else, so what a run allocates does not
// follow the number of persons in the document. The matcher this replaced
// built one node per person, @id and name before joining them: 378 nodes
// per run at factor 0.05 and 1,486 at factor 0.2.
func TestMatchCostFollowsAnswer(t *testing.T) {
	const runs = 50
	type cost struct{ nodes, answer, bytes int64 }
	measure := func(run func() seq.Seq, size func(seq.Seq) int) cost {
		answer := int64(size(run())) // also warms whatever is lazy
		var m0, m1 runtime.MemStats
		n0, _, _ := seq.ArenaTotals()
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		n1, _, _ := seq.ArenaTotals()
		return cost{nodes: (n1 - n0) / runs, answer: answer, bytes: int64(m1.TotalAlloc-m0.TotalAlloc) / runs}
	}
	costs := map[string][]cost{}
	for _, factor := range []float64{0.05, 0.2} {
		db := Open()
		if err := db.LoadXMark("auction.xml", factor); err != nil {
			t.Fatal(err)
		}
		apt := pointPattern()
		costs["path"] = append(costs["path"], measure(func() seq.Seq {
			res, err := physical.NewMatcher(db.st).WithArena(seq.NewArena()).MatchDocument(context.Background(), apt)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, countNodes))
		p, err := db.Compile(pointQuery)
		if err != nil {
			t.Fatal(err)
		}
		costs["where"] = append(costs["where"], measure(func() seq.Seq {
			res, err := db.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			return res.trees
		}, func(trees seq.Seq) int { return answerNodes(db.st, trees) }))
	}
	for form, c := range costs {
		small, large := c[0], c[1]
		t.Logf("%s: factor 0.05 %+v, factor 0.2 %+v", form, small, large)
		if small.answer == 0 || small.answer != large.answer {
			t.Fatalf("%s: answers of %d and %d nodes, want the same non-empty answer at both factors", form, small.answer, large.answer)
		}
		if small.nodes != large.nodes {
			t.Errorf("%s: %d arena nodes per run at factor 0.05, %d at factor 0.2: node count follows the document", form, small.nodes, large.nodes)
		}
		if large.nodes > 4*large.answer {
			t.Errorf("%s: %d arena nodes per run for an answer of %d nodes, want at most 4x", form, large.nodes, large.answer)
		}
		if float64(large.bytes) >= 1.5*float64(small.bytes) {
			t.Errorf("%s: %d bytes per run at factor 0.05, %d at factor 0.2 (%.2fx) while the document grew 4x, want < 1.5x",
				form, small.bytes, large.bytes, float64(large.bytes)/float64(small.bytes))
		}
	}
}

// BenchmarkPointMatch is the point lookup of TestMatchCostFollowsAnswer at
// the benchmark factor and four times it: ns/op and B/op should read alike.
func BenchmarkPointMatch(b *testing.B) {
	for _, mult := range []float64{1, 4} {
		f := benchFactor() * mult
		db := benchDB(b, f)
		b.Run(fmt.Sprintf("f=%g", f), func(b *testing.B) { runQuery(b, db, pointQuery, TLC) })
	}
}

// BenchmarkMatchNested matches //open_auction/bidder* — every auction with
// its bidders clustered under it — the nest-join shape whose witness trees
// are the answer, so B/op is what building them exactly once costs.
func BenchmarkMatchNested(b *testing.B) {
	db := benchDB(b, benchFactor())
	root := pattern.NewDocRoot(1, "auction.xml")
	auction := root.Add(pattern.NewTagNode(2, "open_auction"), pattern.Descendant, pattern.One)
	auction.Add(pattern.NewTagNode(3, "bidder"), pattern.Child, pattern.ZeroOrMore)
	apt := &pattern.Tree{Root: root}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := physical.NewMatcher(db.st).WithArena(seq.NewArena()).MatchDocument(context.Background(), apt); err != nil {
			b.Fatal(err)
		}
	}
}
