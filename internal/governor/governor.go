// Package governor enforces per-query resource budgets. A Governor is
// created per query run and threaded to the places where runaway queries
// actually spend resources: witness-node arena slab allocation (memory),
// the physical operators' PollStride checkpoints (wall time, piggybacking
// on the existing cancellation polls), and the evaluator's per-operator
// output check (intermediate sequence cardinality). Exceeding any budget
// aborts that query only, with a typed *ErrBudgetExceeded the service
// layer maps to a 422 — the process and every other in-flight query keep
// running.
//
// The package is a dependency leaf (standard library only) so that seq,
// physical, algebra, nav, tlc and service can all import it without
// cycles. The Governor travels in the context.Context of the evaluation,
// which keeps every existing function signature intact.
package governor

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// Resource names a budgeted resource in ErrBudgetExceeded and in the
// process-wide kill counters.
type Resource string

// Budgeted resources.
const (
	// ResourceNodes is the number of witness nodes drawn from the run's
	// arena (slab-granular: enforced when a new slab is allocated).
	ResourceNodes Resource = "arena_nodes"
	// ResourceBytes is the arena memory in bytes backing those nodes.
	ResourceBytes Resource = "arena_bytes"
	// ResourceCardinality is the cardinality of any intermediate operator
	// output sequence.
	ResourceCardinality Resource = "result_cardinality"
	// ResourceWall is elapsed wall-clock time since the run started.
	ResourceWall Resource = "wall_time"
)

// Resources lists every budgeted resource, in reporting order.
func Resources() []Resource {
	return []Resource{ResourceNodes, ResourceBytes, ResourceCardinality, ResourceWall}
}

// Limits is a per-query budget. Zero fields are unlimited; the zero value
// disables governance entirely (New returns nil).
type Limits struct {
	// MaxArenaNodes caps witness nodes allocated from the run's arena.
	MaxArenaNodes int64
	// MaxArenaBytes caps the arena memory backing those nodes.
	MaxArenaBytes int64
	// MaxResultCard caps the cardinality of any intermediate sequence.
	MaxResultCard int64
	// MaxWall caps elapsed evaluation wall-clock time. Unlike a context
	// deadline it surfaces as *ErrBudgetExceeded, not DeadlineExceeded —
	// "your query is over its time budget" rather than "the request timed
	// out" — so clients can tell policy from infrastructure.
	MaxWall time.Duration
}

// Enabled reports whether any budget is set.
func (l Limits) Enabled() bool { return l != Limits{} }

// ErrBudgetExceeded reports that a query went over one of its budgets.
// It aborts only the query that exceeded; the service maps it to 422.
type ErrBudgetExceeded struct {
	// Resource is the budget that was exceeded.
	Resource Resource
	// Limit is the configured budget and Observed the value that tripped it.
	Limit, Observed int64
}

func (e *ErrBudgetExceeded) Error() string {
	if e.Resource == ResourceWall {
		return fmt.Sprintf("governor: %s budget exceeded: %v > limit %v",
			e.Resource, time.Duration(e.Observed), time.Duration(e.Limit))
	}
	return fmt.Sprintf("governor: %s budget exceeded: %d > limit %d", e.Resource, e.Observed, e.Limit)
}

// Governor tracks one query's resource consumption against its Limits.
// All methods are safe for concurrent use and are valid (no-ops) on a nil
// receiver, so ungoverned runs pay a single nil check.
type Governor struct {
	limits Limits
	start  time.Time
	nodes  atomic.Int64
	bytes  atomic.Int64
	// killed latches the first budget error so every later check on the
	// same run fails fast with the same verdict.
	killed atomic.Pointer[ErrBudgetExceeded]
}

// New returns a Governor enforcing l, with the wall clock starting now.
// It returns nil — a valid, all-permitting governor — when l is zero.
func New(l Limits) *Governor {
	if !l.Enabled() {
		return nil
	}
	return &Governor{limits: l, start: time.Now()}
}

// kill records the budget violation, counts it process-wide, and returns
// the latched error (first trip wins).
func (g *Governor) kill(e *ErrBudgetExceeded) error {
	if g.killed.CompareAndSwap(nil, e) {
		countKill(e.Resource)
	}
	return g.killed.Load()
}

// AddAlloc records an arena allocation of n nodes occupying b bytes and
// returns *ErrBudgetExceeded once the node or byte budget is exhausted.
// Called at slab granularity, so its cost is amortized over hundreds of
// node allocations.
func (g *Governor) AddAlloc(n, b int64) error {
	if g == nil {
		return nil
	}
	if e := g.killed.Load(); e != nil {
		return e
	}
	nodes := g.nodes.Add(n)
	bytes := g.bytes.Add(b)
	if g.limits.MaxArenaNodes > 0 && nodes > g.limits.MaxArenaNodes {
		return g.kill(&ErrBudgetExceeded{Resource: ResourceNodes, Limit: g.limits.MaxArenaNodes, Observed: nodes})
	}
	if g.limits.MaxArenaBytes > 0 && bytes > g.limits.MaxArenaBytes {
		return g.kill(&ErrBudgetExceeded{Resource: ResourceBytes, Limit: g.limits.MaxArenaBytes, Observed: bytes})
	}
	return nil
}

// CheckCard checks one operator output's cardinality against the budget.
func (g *Governor) CheckCard(n int) error {
	if g == nil {
		return nil
	}
	if e := g.killed.Load(); e != nil {
		return e
	}
	if g.limits.MaxResultCard > 0 && int64(n) > g.limits.MaxResultCard {
		return g.kill(&ErrBudgetExceeded{Resource: ResourceCardinality, Limit: g.limits.MaxResultCard, Observed: int64(n)})
	}
	return nil
}

// Check is the cheap periodic check run at PollStride checkpoints: it
// verifies the wall-time budget and reports any already-latched kill.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if e := g.killed.Load(); e != nil {
		return e
	}
	if g.limits.MaxWall > 0 {
		if elapsed := time.Since(g.start); elapsed > g.limits.MaxWall {
			return g.kill(&ErrBudgetExceeded{Resource: ResourceWall, Limit: int64(g.limits.MaxWall), Observed: int64(elapsed)})
		}
	}
	return nil
}

// ctxKey keys the Governor in a context.Context.
type ctxKey struct{}

// WithContext returns ctx carrying g. A nil g returns ctx unchanged.
func WithContext(ctx context.Context, g *Governor) context.Context {
	if g == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, g)
}

// FromContext returns the Governor carried by ctx, or nil.
func FromContext(ctx context.Context) *Governor {
	g, _ := ctx.Value(ctxKey{}).(*Governor)
	return g
}

// Poll runs the periodic budget check for the governor carried by ctx
// (nil-safe). The physical operators' poll sites call it next to ctx.Err().
func Poll(ctx context.Context) error {
	return FromContext(ctx).Check()
}

// abort wraps a budget error for the panic-based abort path used where no
// error return exists (arena node allocation deep inside operator code).
// The recover barriers at the evaluator boundaries unwrap it back into the
// budget error; it is not an "internal panic".
type abort struct{ err error }

// Abort panics with err in a form the evaluator's recover barriers convert
// back into a plain error return.
func Abort(err error) {
	panic(abort{err: err})
}

// AbortError reports whether a recovered panic value is a governor abort,
// returning the wrapped error.
func AbortError(r any) (error, bool) {
	if a, ok := r.(abort); ok {
		return a.err, true
	}
	return nil, false
}

// Process-wide kill counters, one per resource in Resources order,
// exported through /varz and the shell's .stats: how many queries each
// budget has aborted since start.
var kills = make([]atomic.Int64, len(Resources()))

func countKill(r Resource) {
	if i := slices.Index(Resources(), r); i >= 0 {
		kills[i].Add(1)
	}
}

// KillTotals reports the process-wide budget-kill counts by resource.
func KillTotals() map[Resource]int64 {
	out := make(map[Resource]int64, len(kills))
	for i, r := range Resources() {
		out[r] = kills[i].Load()
	}
	return out
}
