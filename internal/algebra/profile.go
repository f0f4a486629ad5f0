package algebra

import (
	"fmt"
	"strings"
	"time"

	"tlc/internal/seq"
	"tlc/internal/store"
)

// OpStats is the runtime record of one operator in a profiled evaluation.
type OpStats struct {
	// Op is the profiled operator.
	Op Op
	// OutTrees is the cardinality of the operator's output sequence.
	OutTrees int
	// Elapsed is the operator's own evaluation time, excluding inputs.
	Elapsed time.Duration
	// Store is the store work attributable to this operator (counter delta
	// around its evaluation, excluding inputs).
	Store store.Stats
}

// ProfileResult is the outcome of a profiled evaluation.
type ProfileResult struct {
	// Out is the plan's result sequence.
	Out seq.Seq
	// Stats holds one record per operator, in post-order (inputs before
	// consumers), matching evaluation order.
	Stats []OpStats
	// Arena is the evaluation's witness-node allocation record: how many
	// nodes the run drew from its slab arena and how many slabs that cost.
	Arena seq.ArenaStats
}

// Profile evaluates the plan with Eval while recording,
// per operator, its output cardinality, its own wall-clock time and its own
// store accesses — the data behind an EXPLAIN ANALYZE. Shared subplans
// (fan-out > 1) are profiled once, like Eval computes them once, and panics
// come back as errors, as from Eval.
func Profile(ctx *Context, root Op) (*ProfileResult, error) {
	pr := &ProfileResult{}
	ctx.profile = pr
	out, err := Eval(ctx, root)
	ctx.profile = nil
	if err != nil {
		return nil, err
	}
	pr.Out = out
	pr.Arena = ctx.arena.Stats()
	return pr, nil
}

// eval evaluates one operator over its evaluated inputs and appends its
// record: the inputs' own time and store work are not part of it.
func (pr *ProfileResult) eval(ctx *Context, op Op, in []seq.Seq) (seq.Seq, error) {
	before := ctx.Store.Snapshot()
	start := time.Now()
	out, err := op.eval(ctx, in)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	after := ctx.Store.Snapshot()
	pr.Stats = append(pr.Stats, OpStats{
		Op:       op,
		OutTrees: len(out),
		Elapsed:  elapsed,
		Store: store.Stats{
			TagLookups:        after.TagLookups - before.TagLookups,
			TagRefs:           after.TagRefs - before.TagRefs,
			ValueLookups:      after.ValueLookups - before.ValueLookups,
			NodesRead:         after.NodesRead - before.NodesRead,
			NodesMaterialized: after.NodesMaterialized - before.NodesMaterialized,
		},
	})
	return out, nil
}

// String renders the profile as the plan tree annotated with cardinality
// and time per operator.
func (pr *ProfileResult) String() string {
	byOp := make(map[Op]OpStats, len(pr.Stats))
	var root Op
	for _, s := range pr.Stats {
		byOp[s.Op] = s
	}
	// The last record is the plan root (post-order).
	if len(pr.Stats) > 0 {
		root = pr.Stats[len(pr.Stats)-1].Op
	}
	if root == nil {
		return "(empty profile)\n"
	}
	var sb strings.Builder
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		indent := strings.Repeat("  ", depth)
		label := strings.Split(op.Label(), "\n")[0]
		s := byOp[op]
		fmt.Fprintf(&sb, "%s%-*s -> %d trees, %.3fms", indent, 40-len(indent), label, s.OutTrees,
			float64(s.Elapsed.Microseconds())/1000)
		if s.Store != (store.Stats{}) {
			fmt.Fprintf(&sb, " [%s]", s.Store)
		}
		sb.WriteByte('\n')
		for _, in := range op.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(root, 0)
	if pr.Arena != (seq.ArenaStats{}) {
		fmt.Fprintf(&sb, "%s\n", pr.Arena)
	}
	return sb.String()
}
