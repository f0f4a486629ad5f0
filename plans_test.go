package tlc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlc/internal/algebra"
)

// updatePlans rewrites the golden plan snapshots instead of checking them:
//
//	go test -run TestGoldenPlans -update
var updatePlans = flag.Bool("update", false, "rewrite the golden plan files in testdata/plans")

// TestGoldenPlans snapshots the Explain output of every workload query
// under every algebra engine against testdata/plans/<ENGINE>/<id>.txt.
// Translator or rewrite changes then surface as readable plan diffs instead
// of silent regressions. A plan is a function of the query text and the
// engine alone, so the document loaded here does not shape it. Every plan
// must also be a tree: the evaluator hands each operator's output to one
// consumer, which restructures it in place, so an operator with two
// consumers would be evaluated twice. Explain prints a shared subplan once
// per consumer, so the golden text alone cannot show one.
func TestGoldenPlans(t *testing.T) {
	db := openXMark(t)
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			q, e := q, e
			t.Run(fmt.Sprintf("%s/%s", e, q.ID), func(t *testing.T) {
				prep, err := db.Compile(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				if op := sharedOp(prep.plan); op != nil {
					t.Errorf("plan is not a tree: %q is reached along two paths", strings.SplitN(op.Label(), "\n", 2)[0])
				}
				got := algebra.Explain(prep.plan)
				path := filepath.Join("testdata", "plans", e.String(), q.ID+".txt")
				if *updatePlans {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden plan (regenerate with `go test -run TestGoldenPlans -update`): %v", err)
				}
				if got != string(want) {
					t.Errorf("plan drift for %s/%s (regenerate with -update if intended):\n%s",
						e, q.ID, firstDiff(string(want), got))
				}
			})
		}
	}
}

// sharedOp returns an operator of the plan rooted at root that is reached
// along two paths — the input of two consumers, or twice of one — or nil
// when the plan is a tree.
func sharedOp(root algebra.Op) algebra.Op {
	seen := make(map[algebra.Op]bool)
	var walk func(algebra.Op) algebra.Op
	walk = func(o algebra.Op) algebra.Op {
		if seen[o] {
			return o
		}
		seen[o] = true
		for _, in := range o.Inputs() {
			if s := walk(in); s != nil {
				return s
			}
		}
		return nil
	}
	return walk(root)
}

// firstDiff renders the first differing line of two plan texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return "(no line diff — trailing content)"
}
