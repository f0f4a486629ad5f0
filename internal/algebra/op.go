// Package algebra implements the TLC logical algebra of Section 2.3 of the
// paper — Select, Filter, Join, Project, Duplicate-Elimination,
// Aggregate-Function, Construct, Sort, Union — together with the
// redundancy-eliminating operators of Section 4: Flatten, Shadow and
// Illuminate. It also provides the Materialize, GroupBy and Merge operators
// that the TAX and GTP baseline plan generators use; sharing one executor
// keeps the engine comparison honest (identical data structures, identical
// store, different plan shapes).
//
// Every operator maps one or more sequences of trees to one sequence of
// trees (possibly heterogeneous); operators address nodes through logical
// class labels only. Plans are DAGs of operators evaluated bottom-up with
// per-node memoization, so a shared subplan (pattern tree reuse) is
// computed once.
package algebra

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tlc/internal/failure"
	"tlc/internal/governor"
	"tlc/internal/physical"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// Op is a node of a logical plan.
type Op interface {
	// Inputs returns the operator's input plans, leftmost first.
	Inputs() []Op
	// Label renders the operator for plan explanation, without inputs.
	Label() string
	// eval computes the output sequence given the evaluated inputs.
	eval(ctx *Context, in []seq.Seq) (seq.Seq, error)
}

// Context carries the evaluation environment for one query.
type Context struct {
	Store   *store.Store
	Matcher *physical.Matcher
	// goCtx is the context.Context governing this evaluation: the evaluator
	// checks it between operators, chunkMap checks it between chunks, and
	// the physical operators poll it inside their per-tree and join loops,
	// so a deadline or a client disconnect stops work mid-plan instead of
	// after the current operator finishes.
	goCtx context.Context
	// memo caches operator results so DAG-shaped plans evaluate shared
	// subplans once (pattern tree reuse across operators). Used by the
	// serial evaluator; the parallel evaluator memoizes through futures
	// instead. Memoized sequences are frozen: consumers receive aliases and
	// copy-on-write, never clones.
	memo map[Op]seq.Seq
	// profile, set by Profile for the duration of one evaluation, receives
	// one OpStats per evaluated operator; nil for a plain Eval.
	profile *ProfileResult
	// arena backs witness-node allocation for this evaluation: operators
	// and the matcher bump-allocate nodes from run-scoped slabs instead of
	// paying one GC allocation each. The arena is race-safe, so parallel
	// workers share it. Result trees keep their slabs alive after the run;
	// the GC reclaims everything when the result is dropped.
	arena *seq.Arena
	// parallelism is the worker budget for this evaluation: 1 evaluates
	// exactly like the original serial executor; n>1 evaluates independent
	// DAG branches concurrently and scatters per-tree operators over
	// chunks of their input sequence.
	parallelism int
	// sem holds parallelism-1 tokens: the calling goroutine always works,
	// extra goroutines are spawned only while a token is available. Workers
	// acquire non-blockingly and fall back to running in the caller, so the
	// pool can never deadlock on nested fan-out.
	sem chan struct{}
	// futures memoizes operator evaluations in the parallel executor: the
	// first consumer to claim an operator evaluates it, later consumers
	// block on done and share (clone) the result. This keeps DAG-shaped
	// plans evaluating shared subplans exactly once even when two
	// consumers race — required for temporary-node identity (NodeIDDE,
	// identity joins) to keep working across branches.
	futures map[Op]*opFuture
	mu      sync.Mutex
	// gov enforces this evaluation's resource budgets (nil = ungoverned).
	// It is taken from goCtx at construction: the arena charges slab
	// allocations against it, the physical poll sites check its wall
	// budget, and the evaluators check every operator's output cardinality.
	// Per-shard arenas all charge this one governor, so the budget is
	// query-wide across shard workers, never N× the limit.
	gov *governor.Governor
	// shardEvals holds lazily created per-shard matching state (matcher +
	// arena) when the store has more than one shard. Routing pattern work to
	// the owning shard's matcher partitions the candidate/partial caches and
	// their mutexes by shard — a contention and locality win; it is never a
	// correctness requirement (match results are identical whichever matcher
	// serves them), so routing is best-effort.
	shardEvals []shardEval
}

// shardEval is one shard's lazily initialized matching state.
type shardEval struct {
	once    sync.Once
	matcher *physical.Matcher
	arena   *seq.Arena
}

type opFuture struct {
	done chan struct{}
	out  seq.Seq
	err  error
}

// NewContext returns a fresh serial evaluation context over st.
func NewContext(st *store.Store) *Context {
	return NewContextFor(context.Background(), st, 1)
}

// NewParallelContext returns an evaluation context with the given worker
// budget (see NewContextFor for the parallelism convention).
func NewParallelContext(st *store.Store, parallelism int) *Context {
	return NewContextFor(context.Background(), st, parallelism)
}

// NewContextFor returns an evaluation context bound to goCtx: cancelling
// goCtx (or exceeding its deadline) makes the evaluation return goCtx.Err()
// promptly, cooperatively checked between operators, between chunks and
// inside the physical operators' loops. Parallelism below 1 defaults to
// GOMAXPROCS; 1 yields the plain serial context (bit-for-bit identical
// behavior, including store counters). For n > 1 the matcher runs in
// shared mode so worker goroutines can match patterns concurrently.
func NewContextFor(goCtx context.Context, st *store.Store, parallelism int) *Context {
	if goCtx == nil {
		goCtx = context.Background()
	}
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	gov := governor.FromContext(goCtx)
	arena := seq.NewArena().WithGovernor(gov)
	if parallelism <= 1 {
		// Serial evaluation has no arena or matcher-cache contention to
		// partition away, so it uses the single main matcher and arena
		// regardless of the store's shard count — per-shard state would
		// cost a matcher+arena setup per run and buy nothing.
		return &Context{Store: st, Matcher: physical.NewMatcher(st).WithArena(arena), goCtx: goCtx, memo: make(map[Op]seq.Seq), parallelism: 1, arena: arena, gov: gov}
	}
	var evals []shardEval
	if n := st.NumShards(); n > 1 {
		evals = make([]shardEval, n)
	}
	return &Context{
		Store:       st,
		Matcher:     physical.NewSharedMatcher(st).WithArena(arena),
		goCtx:       goCtx,
		memo:        make(map[Op]seq.Seq),
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism-1),
		futures:     make(map[Op]*opFuture),
		arena:       arena,
		gov:         gov,
		shardEvals:  evals,
	}
}

// Arena returns the evaluation's witness-node arena (never nil for
// contexts built by NewContextFor).
func (ctx *Context) Arena() *seq.Arena { return ctx.arena }

// shardEval returns shard i's matching state, creating it on first use.
// Each shard gets its own matcher (candidate/partial caches and, in shared
// mode, their mutex are partitioned per shard) backed by its own arena —
// and every shard arena charges the *same* governor as the main arena, so
// arena-byte and witness-node budgets stay one query-wide budget no matter
// how many shard workers allocate.
func (ctx *Context) shardEvalFor(i int) *shardEval {
	se := &ctx.shardEvals[i]
	se.once.Do(func() {
		se.arena = seq.NewArena().WithGovernor(ctx.gov)
		if ctx.parallel() {
			se.matcher = physical.NewSharedMatcher(ctx.Store).WithArena(se.arena)
		} else {
			se.matcher = physical.NewMatcher(ctx.Store).WithArena(se.arena)
		}
	})
	return se
}

// MatcherFor returns the matcher owning shard i's pattern work — the
// context's single matcher on a one-shard store (or out-of-range i), shard
// i's own matcher otherwise.
func (ctx *Context) MatcherFor(i int) *physical.Matcher {
	if len(ctx.shardEvals) == 0 || i < 0 || i >= len(ctx.shardEvals) {
		return ctx.Matcher
	}
	return ctx.shardEvalFor(i).matcher
}

// ArenaFor returns the arena backing shard i's witness nodes (the main
// arena on a one-shard store or out-of-range i).
func (ctx *Context) ArenaFor(i int) *seq.Arena {
	if len(ctx.shardEvals) == 0 || i < 0 || i >= len(ctx.shardEvals) {
		return ctx.arena
	}
	return ctx.shardEvalFor(i).arena
}

// ArenaStats aggregates allocation counters across the main arena and
// every shard arena touched by this evaluation.
func (ctx *Context) ArenaStats() seq.ArenaStats {
	total := ctx.arena.Stats()
	for i := range ctx.shardEvals {
		se := &ctx.shardEvals[i]
		// Only count shards whose once fired; Stats on a nil arena is zero.
		s := se.arena.Stats()
		total.Nodes += s.Nodes
		total.Slabs += s.Slabs
	}
	return total
}

// GoContext returns the context.Context governing this evaluation; it is
// never nil. Operators pass it down to the physical layer.
func (ctx *Context) GoContext() context.Context {
	if ctx.goCtx == nil {
		return context.Background()
	}
	return ctx.goCtx
}

// Cancelled returns the evaluation's cancellation error (nil while the
// evaluation may continue). The returned error is the governing context's
// own Err(), so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) work on evaluation results.
func (ctx *Context) Cancelled() error {
	if ctx.goCtx == nil {
		return nil
	}
	return ctx.goCtx.Err()
}

// Parallelism returns the context's worker budget.
func (ctx *Context) Parallelism() int { return ctx.parallelism }

func (ctx *Context) parallel() bool { return ctx.parallelism > 1 }

// tryAcquire takes a worker token without blocking.
func (ctx *Context) tryAcquire() bool {
	select {
	case ctx.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (ctx *Context) release() { <-ctx.sem }

// Eval evaluates the plan rooted at op and returns its result sequence.
// Plans may be DAGs: operators feeding several consumers are evaluated
// once, their results frozen, and each consumer handed an alias — shared
// trees are copied lazily, only by the operators that actually mutate
// them (copy-on-write), so downstream restructuring cannot corrupt a
// shared subplan's output.
//
// Eval is a containment barrier: a panic anywhere in serial plan
// evaluation (or rethrown from a parallel branch) is recovered here and
// returned as an error — a governor budget abort as its typed
// *ErrBudgetExceeded, anything else as a *failure.PanicError — so one
// broken or over-budget query can never take down the process.
func Eval(ctx *Context, op Op) (out seq.Seq, err error) {
	defer failure.Recover(&err, "algebra.Eval")
	fanout := make(map[Op]int)
	for _, o := range Ops(op) {
		for _, in := range o.Inputs() {
			fanout[in]++
		}
	}
	if ctx.parallel() && ctx.profile == nil {
		return evalNodeParallel(ctx, op, fanout)
	}
	return evalNode(ctx, op, fanout)
}

// checkCard enforces the intermediate-cardinality budget on one operator's
// output, labelling the violation with the operator that produced it.
func (ctx *Context) checkCard(op Op, n int) error {
	if err := ctx.gov.CheckCard(n); err != nil {
		return fmt.Errorf("%s: %w", op.Label(), err)
	}
	return nil
}

func evalNode(ctx *Context, op Op, fanout map[Op]int) (seq.Seq, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	if res, ok := ctx.memo[op]; ok {
		return res.Alias(), nil
	}
	ins := op.Inputs()
	res := make([]seq.Seq, len(ins))
	for i, in := range ins {
		r, err := evalNode(ctx, in, fanout)
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	var out seq.Seq
	var err error
	if ctx.profile != nil {
		out, err = ctx.profile.eval(ctx, op, res)
	} else {
		out, err = op.eval(ctx, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op.Label(), err)
	}
	if err := ctx.checkCard(op, len(out)); err != nil {
		return nil, err
	}
	if fanout[op] > 1 {
		// Freeze once, alias per consumer: mutating consumers copy on
		// write, reading consumers share the trees outright.
		out.Freeze()
		ctx.memo[op] = out
		return out.Alias(), nil
	}
	return out, nil
}

// evalNodeParallel is the concurrent evaluator: independent input branches
// of an operator are evaluated on worker goroutines (bounded by the
// context's token pool), and DAG-shaped plans synchronize on per-operator
// futures so a shared subplan is evaluated exactly once no matter which
// consumer reaches it first. Like the serial evaluator, results consumed
// by several operators are frozen and aliased per consumer.
func evalNodeParallel(ctx *Context, op Op, fanout map[Op]int) (seq.Seq, error) {
	// Checked before claiming a future so a cancelled evaluation never
	// leaves an unclosed future behind for other consumers to block on.
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	ctx.mu.Lock()
	if f, ok := ctx.futures[op]; ok {
		ctx.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.out.Alias(), nil
	}
	f := &opFuture{done: make(chan struct{})}
	ctx.futures[op] = f
	ctx.mu.Unlock()

	// Per-future containment barrier: the claiming consumer computes the
	// result inside a recover, so a panic (operator bug, injected fault,
	// budget abort from an allocation site) lands in f.err and the future
	// is always closed — waiting consumers get the error instead of
	// blocking forever on a future nobody will finish.
	f.out, f.err = func() (out seq.Seq, err error) {
		defer failure.Recover(&err, op.Label())
		return evalInputsParallel(ctx, op, fanout)
	}()
	if f.err == nil && fanout[op] > 1 {
		// Freeze before close(done): the channel close gives every waiting
		// consumer a happens-before edge on the frozen bit, so concurrent
		// consumers see immutable trees and copy on write — no goroutine
		// ever mutates a tree another goroutine can reach.
		f.out.Freeze()
	}
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	if fanout[op] > 1 {
		return f.out.Alias(), nil
	}
	return f.out, nil
}

func evalInputsParallel(ctx *Context, op Op, fanout map[Op]int) (seq.Seq, error) {
	ins := op.Inputs()
	res := make([]seq.Seq, len(ins))
	errs := make([]error, len(ins))
	if len(ins) > 1 {
		var wg sync.WaitGroup
		var inline []int
		for i := 1; i < len(ins); i++ {
			if ctx.tryAcquire() {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer ctx.release()
					// A panic on a branch worker goroutine would kill the
					// process before any downstream barrier could run;
					// contain it here and report it as the branch's error.
					defer failure.Recover(&errs[i], ins[i].Label())
					res[i], errs[i] = evalNodeParallel(ctx, ins[i], fanout)
				}(i)
			} else {
				inline = append(inline, i)
			}
		}
		res[0], errs[0] = evalNodeParallel(ctx, ins[0], fanout)
		for _, i := range inline {
			res[i], errs[i] = evalNodeParallel(ctx, ins[i], fanout)
		}
		wg.Wait()
		// Report the leftmost failure for deterministic error messages.
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
	} else if len(ins) == 1 {
		r, err := evalNodeParallel(ctx, ins[0], fanout)
		if err != nil {
			return nil, err
		}
		res[0] = r
	}
	out, err := op.eval(ctx, res)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op.Label(), err)
	}
	if err := ctx.checkCard(op, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// minChunk is the smallest per-worker slice of a sequence worth scattering:
// below it, goroutine handoff costs more than the per-tree work saved.
const minChunk = 16

// chunkMap is the scatter–gather path for per-tree operators: fn maps a
// contiguous chunk of the input sequence to its output subsequence, chunks
// are claimed by workers off an atomic counter, and the outputs are
// concatenated in chunk order — so the gathered sequence is exactly the
// sequence a serial left-to-right loop would produce. Operators that create
// temporary nodes pass renumber=true: after the gather, identifiers issued
// by the workers (all above the watermark taken here, before scattering)
// are re-issued in sequence order, restoring node-ID property 4. On a
// serial context, or when the input is too small to be worth scattering,
// fn runs once over the whole sequence.
func chunkMap(ctx *Context, in seq.Seq, renumber bool, fn func(seq.Seq) (seq.Seq, error)) (seq.Seq, error) {
	if !ctx.parallel() || len(in) < 2*minChunk {
		return fn(in)
	}
	watermark := seq.TempWatermark()
	size := (len(in) + 4*ctx.parallelism - 1) / (4 * ctx.parallelism)
	if size < minChunk {
		size = minChunk
	}
	numChunks := (len(in) + size - 1) / size
	outs := make([]seq.Seq, numChunks)
	errs := make([]error, numChunks)
	var next atomic.Int64
	worker := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= numChunks {
				return
			}
			if err := ctx.Cancelled(); err != nil {
				errs[c] = err
				return
			}
			lo := c * size
			hi := lo + size
			if hi > len(in) {
				hi = len(in)
			}
			outs[c], errs[c] = runChunk(fn, in[lo:hi])
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < numChunks; i++ {
		if !ctx.tryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ctx.release()
			worker()
		}()
	}
	worker() // the caller is always a worker too
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e // leftmost chunk's error, deterministically
		}
	}
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	out := make(seq.Seq, 0, n)
	for _, o := range outs {
		out = append(out, o...)
	}
	if renumber {
		seq.RenumberTemps(out, watermark)
	}
	return out, nil
}

// runChunk applies fn to one chunk behind a containment barrier: a panic
// in a chunk worker goroutine becomes that chunk's error (reported in
// deterministic leftmost order by the gather) instead of killing the
// process.
func runChunk(fn func(seq.Seq) (seq.Seq, error), chunk seq.Seq) (out seq.Seq, err error) {
	defer failure.Recover(&err, "chunk")
	return fn(chunk)
}

// Run is a convenience wrapper: build a context, evaluate, return result.
func Run(st *store.Store, op Op) (seq.Seq, error) {
	return Eval(NewContext(st), op)
}

// RunParallel evaluates the plan with the given worker budget (see
// NewParallelContext for the parallelism convention).
func RunParallel(st *store.Store, op Op, parallelism int) (seq.Seq, error) {
	return Eval(NewParallelContext(st, parallelism), op)
}

// RunContext evaluates the plan under goCtx with the given worker budget;
// cancellation and deadline expiry surface as goCtx.Err() (see
// NewContextFor).
func RunContext(goCtx context.Context, st *store.Store, op Op, parallelism int) (seq.Seq, error) {
	return Eval(NewContextFor(goCtx, st, parallelism), op)
}

// Explain renders the plan as an indented operator tree, children below
// their consumer, mirroring the bottom-up figures of the paper.
func Explain(op Op) string { return ExplainFunc(op, nil) }

// ExplainFunc renders the plan like Explain, appending " [annotate(op)]"
// to each operator's first label line when annotate returns non-empty —
// the hook the planner uses to show per-operator cardinality estimates.
func ExplainFunc(op Op, annotate func(Op) string) string {
	var sb strings.Builder
	var walk func(o Op, depth int)
	walk = func(o Op, depth int) {
		indent := strings.Repeat("  ", depth)
		label := o.Label()
		// Multi-line labels (operators embedding a pattern tree) are
		// indented as a block.
		lines := strings.Split(strings.TrimRight(label, "\n"), "\n")
		for i, l := range lines {
			if i == 0 {
				if annotate != nil {
					if a := annotate(o); a != "" {
						l += " [" + a + "]"
					}
				}
				sb.WriteString(indent + l + "\n")
			} else {
				sb.WriteString(indent + "    " + l + "\n")
			}
		}
		for _, in := range o.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(op, 0)
	return sb.String()
}

// Ops returns all operators of the plan in pre-order, each once (DAG
// aware). Used by rewrite rules and plan statistics.
func Ops(root Op) []Op {
	seen := make(map[Op]bool)
	var out []Op
	var walk func(Op)
	walk = func(o Op) {
		if seen[o] {
			return
		}
		seen[o] = true
		out = append(out, o)
		for _, in := range o.Inputs() {
			walk(in)
		}
	}
	walk(root)
	return out
}

// ReplaceInput swaps the input oldIn of op for newIn. It reports whether a
// replacement happened. Rewrite rules use it to splice plans.
func ReplaceInput(op Op, oldIn, newIn Op) bool {
	type mutable interface{ replaceInput(oldIn, newIn Op) bool }
	if m, ok := op.(mutable); ok {
		return m.replaceInput(oldIn, newIn)
	}
	return false
}

// unary is the common base of single-input operators.
type unary struct {
	In Op
}

func (u *unary) Inputs() []Op {
	if u.In == nil {
		return nil
	}
	return []Op{u.In}
}

func (u *unary) replaceInput(oldIn, newIn Op) bool {
	if u.In == oldIn {
		u.In = newIn
		return true
	}
	return false
}

// binary is the common base of two-input operators.
type binary struct {
	Left, Right Op
}

func (b *binary) Inputs() []Op { return []Op{b.Left, b.Right} }

func (b *binary) replaceInput(oldIn, newIn Op) bool {
	done := false
	if b.Left == oldIn {
		b.Left = newIn
		done = true
	}
	if b.Right == oldIn {
		b.Right = newIn
		done = true
	}
	return done
}
