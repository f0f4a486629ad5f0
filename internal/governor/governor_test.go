package governor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNewZeroLimitsIsNil(t *testing.T) {
	if g := New(Limits{}); g != nil {
		t.Fatalf("New(zero) = %v, want nil", g)
	}
}

func TestNilGovernorPermitsEverything(t *testing.T) {
	var g *Governor
	if err := g.AddAlloc(1<<40, 1<<50); err != nil {
		t.Errorf("nil AddAlloc = %v", err)
	}
	if err := g.CheckCard(1 << 30); err != nil {
		t.Errorf("nil CheckCard = %v", err)
	}
	if err := g.Check(); err != nil {
		t.Errorf("nil Check = %v", err)
	}
}

func TestAddAllocNodeBudget(t *testing.T) {
	g := New(Limits{MaxArenaNodes: 1000})
	if err := g.AddAlloc(512, 1); err != nil {
		t.Fatalf("first slab: %v", err)
	}
	err := g.AddAlloc(512, 1)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("second slab err = %v, want *ErrBudgetExceeded", err)
	}
	if be.Resource != ResourceNodes || be.Limit != 1000 || be.Observed != 1024 {
		t.Errorf("got %+v", be)
	}
	// The kill is latched: every later check fails identically.
	if err := g.CheckCard(0); !errors.As(err, &be) {
		t.Errorf("CheckCard after kill = %v", err)
	}
	if err := g.Check(); !errors.As(err, &be) {
		t.Errorf("Check after kill = %v", err)
	}
}

func TestAddAllocByteBudget(t *testing.T) {
	g := New(Limits{MaxArenaBytes: 100})
	err := g.AddAlloc(1, 101)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceBytes {
		t.Fatalf("err = %v, want byte budget", err)
	}
}

func TestCheckCard(t *testing.T) {
	g := New(Limits{MaxResultCard: 10})
	if err := g.CheckCard(10); err != nil {
		t.Fatalf("at limit: %v", err)
	}
	err := g.CheckCard(11)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceCardinality {
		t.Fatalf("err = %v, want cardinality budget", err)
	}
}

func TestWallBudget(t *testing.T) {
	g := New(Limits{MaxWall: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := g.Check()
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceWall {
		t.Fatalf("err = %v, want wall budget", err)
	}
}

func TestFirstKillWinsUnderConcurrency(t *testing.T) {
	g := New(Limits{MaxResultCard: 1})
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = g.CheckCard(2 + i)
		}(i)
	}
	wg.Wait()
	var first *ErrBudgetExceeded
	if !errors.As(errs[0], &first) {
		t.Fatalf("errs[0] = %v", errs[0])
	}
	for i, err := range errs {
		var be *ErrBudgetExceeded
		if !errors.As(err, &be) {
			t.Fatalf("errs[%d] = %v", i, err)
		}
		if be != first {
			t.Errorf("errs[%d] latched a different kill: %v vs %v", i, be, first)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	g := New(Limits{MaxResultCard: 1})
	ctx := WithContext(context.Background(), g)
	if got := FromContext(ctx); got != g {
		t.Fatalf("FromContext = %v, want %v", got, g)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	// Poll on an ungoverned context is free and nil.
	if err := Poll(context.Background()); err != nil {
		t.Fatalf("Poll(empty) = %v", err)
	}
}

func TestAbortRoundTrip(t *testing.T) {
	want := &ErrBudgetExceeded{Resource: ResourceNodes, Limit: 1, Observed: 2}
	defer func() {
		r := recover()
		err, ok := AbortError(r)
		if !ok {
			t.Fatalf("AbortError(%v) not an abort", r)
		}
		if !errors.Is(err, want) {
			t.Errorf("unwrapped %v, want %v", err, want)
		}
		if _, ok := AbortError("ordinary panic"); ok {
			t.Error("AbortError claimed an ordinary panic value")
		}
	}()
	Abort(want)
}

func TestErrorStrings(t *testing.T) {
	e := &ErrBudgetExceeded{Resource: ResourceNodes, Limit: 10, Observed: 20}
	if e.Error() == "" {
		t.Error("empty error string")
	}
	w := &ErrBudgetExceeded{Resource: ResourceWall, Limit: int64(time.Second), Observed: int64(2 * time.Second)}
	if want := "2s"; !contains(w.Error(), want) {
		t.Errorf("wall error %q does not mention %q", w.Error(), want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestKillTotalsCount(t *testing.T) {
	before := KillTotals()[ResourceCardinality]
	g := New(Limits{MaxResultCard: 1})
	g.CheckCard(5)
	g.CheckCard(6) // latched, must not double-count
	if got := KillTotals()[ResourceCardinality]; got != before+1 {
		t.Errorf("kill total = %d, want %d", got, before+1)
	}
}
