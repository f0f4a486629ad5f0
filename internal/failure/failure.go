// Package failure converts panics into structured errors at the engine's
// containment boundaries. Before it existed, a panic anywhere in plan
// evaluation — an operator bug, a corrupt witness tree, an injected fault
// — unwound straight through the HTTP handler and killed the whole
// tlcserve process for every tenant. The recover barriers built from this
// package sit at the evaluator top level, around the navigational
// interpreter, and around the service handlers, so a panic takes down
// exactly one query.
//
// Two kinds of panic cross a barrier: governor budget aborts (a controlled
// panic carrying an *ErrBudgetExceeded from an allocation site with no
// error return), which are unwrapped back into their budget error, and
// genuine bugs, which become a *PanicError carrying the panic value and
// stack — the service maps those to 500 and counts them.
package failure

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"tlc/internal/governor"
)

// PanicError is a panic recovered at a containment barrier, preserving the
// panic value and the stack of the panicking goroutine. It maps to the
// "internal" class of the service error taxonomy.
type PanicError struct {
	// Op names the barrier that recovered the panic (operator label,
	// "algebra.Eval", "service.query", ...).
	Op string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal: panic in %s: %v", e.Op, e.Value)
}

// panicsRecovered counts panics converted to errors process-wide,
// surfaced in /varz and .stats. Budget aborts are not panics and are not
// counted here.
var panicsRecovered atomic.Int64

// PanicsRecovered returns the number of panics converted to errors since
// process start.
func PanicsRecovered() int64 { return panicsRecovered.Load() }

// FromPanic converts a recovered panic value into an error: governor
// aborts unwrap to their budget error, everything else becomes a counted
// *PanicError with the current stack.
func FromPanic(op string, r any) error {
	if err, ok := governor.AbortError(r); ok {
		return err
	}
	panicsRecovered.Add(1)
	return &PanicError{Op: op, Value: r, Stack: debug.Stack()}
}

// Recover is the deferred form of a containment barrier:
//
//	defer failure.Recover(&err, "algebra.Eval")
//
// It converts an in-flight panic into an error assigned through errp and
// lets normal returns pass through untouched.
func Recover(errp *error, op string) {
	if r := recover(); r != nil {
		*errp = FromPanic(op, r)
	}
}
