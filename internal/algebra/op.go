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
	"strings"

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
	// checks it between operators, and the physical operators poll it
	// inside their per-tree and join loops, so a deadline or a client
	// disconnect stops work mid-plan instead of after the current operator
	// finishes.
	goCtx context.Context
	// memo caches operator results so DAG-shaped plans evaluate shared
	// subplans once (pattern tree reuse across operators). Memoized
	// sequences are frozen: consumers receive aliases and copy-on-write,
	// never clones.
	memo map[Op]seq.Seq
	// profile, set by Profile for the duration of one evaluation, receives
	// one OpStats per evaluated operator; nil for a plain Eval.
	profile *ProfileResult
	// arena backs witness-node allocation for this evaluation: operators
	// and the matcher bump-allocate nodes from run-scoped slabs instead of
	// paying one GC allocation each. Result trees keep their slabs alive
	// after the run; the GC reclaims everything when the result is dropped.
	arena *seq.Arena
	// gov enforces this evaluation's resource budgets (nil = ungoverned).
	// It is taken from goCtx at construction: the arena charges slab
	// allocations against it, the physical poll sites check its wall
	// budget, and the evaluator checks every operator's output cardinality.
	gov *governor.Governor
}

// NewContext returns a fresh evaluation context over st.
func NewContext(st *store.Store) *Context {
	return NewContextFor(context.Background(), st)
}

// NewContextFor returns an evaluation context bound to goCtx: cancelling
// goCtx (or exceeding its deadline) makes the evaluation return goCtx.Err()
// promptly, cooperatively checked between operators and inside the
// physical operators' loops.
func NewContextFor(goCtx context.Context, st *store.Store) *Context {
	if goCtx == nil {
		goCtx = context.Background()
	}
	gov := governor.FromContext(goCtx)
	arena := seq.NewArena().WithGovernor(gov)
	return &Context{Store: st, Matcher: physical.NewMatcher(st).WithArena(arena), goCtx: goCtx, memo: make(map[Op]seq.Seq), arena: arena, gov: gov}
}

// Arena returns the evaluation's witness-node arena (never nil for
// contexts built by NewContextFor).
func (ctx *Context) Arena() *seq.Arena { return ctx.arena }

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

// Eval evaluates the plan rooted at op and returns its result sequence.
// Plans may be DAGs: operators feeding several consumers are evaluated
// once, their results frozen, and each consumer handed an alias — shared
// trees are copied lazily, only by the operators that actually mutate
// them (copy-on-write), so downstream restructuring cannot corrupt a
// shared subplan's output.
//
// Eval is a containment barrier: a panic anywhere in plan evaluation is
// recovered here and returned as an error — a governor budget abort as its
// typed *ErrBudgetExceeded, anything else as a *failure.PanicError — so
// one broken or over-budget query can never take down the process.
func Eval(ctx *Context, op Op) (out seq.Seq, err error) {
	defer failure.Recover(&err, "algebra.Eval")
	fanout := make(map[Op]int)
	for _, o := range Ops(op) {
		for _, in := range o.Inputs() {
			fanout[in]++
		}
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

// Run is a convenience wrapper: build a context, evaluate, return result.
func Run(st *store.Store, op Op) (seq.Seq, error) {
	return Eval(NewContext(st), op)
}

// RunContext evaluates the plan under goCtx; cancellation and deadline
// expiry surface as goCtx.Err() (see NewContextFor).
func RunContext(goCtx context.Context, st *store.Store, op Op) (seq.Seq, error) {
	return Eval(NewContextFor(goCtx, st), op)
}

// Explain renders the plan as an indented operator tree, children below
// their consumer, mirroring the bottom-up figures of the paper.
func Explain(op Op) string {
	var sb strings.Builder
	var walk func(o Op, depth int)
	walk = func(o Op, depth int) {
		indent := strings.Repeat("  ", depth)
		// Multi-line labels (operators embedding a pattern tree) are
		// indented as a block.
		lines := strings.Split(strings.TrimRight(o.Label(), "\n"), "\n")
		for i, l := range lines {
			if i == 0 {
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
