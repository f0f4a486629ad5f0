package service

import (
	"context"
	"errors"
	"net/http"

	"tlc"
	"tlc/internal/failure"
	"tlc/internal/faultinject"
	"tlc/internal/physical"
)

// The service error taxonomy. Every error response carries one of these
// machine-readable codes next to the human-readable message, so clients
// and the chaos tests can branch on the class without parsing text:
//
//	user_error       400  malformed request, unknown engine, compile error
//	query_error      422  the query is valid but cannot evaluate (e.g.
//	                      unknown document)
//	budget_exceeded  422  the query tripped its resource governor
//	conflict         409  an update lost its commit race to a concurrent
//	                      writer after retries
//	overloaded       429  shed before evaluation: admission queue full
//	canceled         503  the client went away mid-evaluation
//	unavailable      503  shed while queued
//	timeout          504  the evaluation deadline expired
//	internal         500  a contained panic, injected fault, or a commit
//	                      vetoed by a WAL write failure
//	recovering       503  the node is replaying its WAL (or draining for
//	                      shutdown) and not yet/no longer serving writes
const (
	codeUserError   = "user_error"
	codeQueryError  = "query_error"
	codeBudget      = "budget_exceeded"
	codeConflict    = "conflict"
	codeOverloaded  = "overloaded"
	codeCanceled    = "canceled"
	codeUnavailable = "unavailable"
	codeTimeout     = "timeout"
	codeInternal    = "internal"
	codeRecovering  = "recovering"
)

// classify maps an evaluation error to its HTTP status and taxonomy code.
// The order matters: a budget kill latched while the context expired must
// still read as a budget kill, so the typed matches run before the
// context sentinels.
func classify(err error) (int, string) {
	var be *tlc.BudgetError
	var pe *failure.PanicError
	var xe *physical.ExplosionError
	switch {
	case errors.As(err, &be):
		return http.StatusUnprocessableEntity, codeBudget
	case errors.As(err, &xe):
		// A pattern node exceeded the matcher's alternative cap: the query
		// is well-formed but too explosive for this data — the client's
		// problem (reformulate or shrink scope), never an internal fault.
		return http.StatusUnprocessableEntity, codeQueryError
	case errors.As(err, &pe), errors.Is(err, faultinject.ErrInjected):
		return http.StatusInternalServerError, codeInternal
	case errors.Is(err, tlc.ErrDurability):
		// The WAL refused the commit's record; the store is unchanged but
		// the node can no longer honor its durability contract — an
		// operator problem, not the client's.
		return http.StatusInternalServerError, codeInternal
	case errors.Is(err, tlc.ErrUpdateConflict):
		// The update lost its commit race repeatedly; the client can refetch
		// and retry, so this is contention, not an internal failure.
		return http.StatusConflict, codeConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the exact code is for the access log only.
		return http.StatusServiceUnavailable, codeCanceled
	default:
		return http.StatusUnprocessableEntity, codeQueryError
	}
}
