package tlc

import (
	"testing"

	"tlc/internal/seq"
)

// TestFig15ArenaNodeOrder is Figure 15's claim as an exact gate: on every
// workload query, TLC builds no more witness nodes than GTP, and GTP no
// more than TAX — pattern-tree reuse and annotated edges save the work
// that flat matches, grouping and early materialization spend. Nodes are
// counted as the arena totals (slab and plain) before and after one run at
// XMark factor 0.05; the counts are deterministic, not timings.
func TestFig15ArenaNodeOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("counts do not depend on the race detector, and GTP + TAX under it are slow")
	}
	db := Open()
	if err := db.LoadXMark("auction.xml", 0.05); err != nil {
		t.Fatal(err)
	}
	engines := []Engine{TLC, GTP, TAX}
	for _, q := range Workload() {
		nodes := make([]int64, len(engines))
		for i, e := range engines {
			p, err := db.Compile(q.Text, WithEngine(e))
			if err != nil {
				t.Fatalf("%s/%s: %v", q.ID, e, err)
			}
			n0, _, p0 := seq.ArenaTotals()
			if _, err := db.Run(p); err != nil {
				t.Fatalf("%s/%s: %v", q.ID, e, err)
			}
			n1, _, p1 := seq.ArenaTotals()
			nodes[i] = n1 - n0 + p1 - p0
		}
		if nodes[0] > nodes[1] || nodes[1] > nodes[2] {
			t.Errorf("%s: arena nodes TLC %d, GTP %d, TAX %d: want TLC ≤ GTP ≤ TAX", q.ID, nodes[0], nodes[1], nodes[2])
			continue
		}
		t.Logf("%s: arena nodes TLC %d ≤ GTP %d ≤ TAX %d", q.ID, nodes[0], nodes[1], nodes[2])
	}
}
