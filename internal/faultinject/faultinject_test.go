package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsNoop(t *testing.T) {
	Disable()
	if Active() {
		t.Fatal("Active after Disable")
	}
	for _, p := range Catalog() {
		if err := Hit(p); err != nil {
			t.Errorf("Hit(%s) = %v while disabled", p, err)
		}
	}
}

func TestErrorMode(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(PointStoreLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	err := Hit(PointStoreLoad)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), PointStoreLoad) {
		t.Errorf("error %q does not name the point", err)
	}
	// Unarmed points stay silent.
	if err := Hit(PointValueJoin); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(PointValueJoin + "=panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Hit did not panic")
		}
	}()
	Hit(PointValueJoin)
}

func TestSlowMode(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(PointServiceQuery + "=slow,delay=30ms"); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if err := Hit(PointServiceQuery); err != nil {
		t.Fatalf("slow mode returned error: %v", err)
	}
	if d := time.Since(begin); d < 30*time.Millisecond {
		t.Errorf("slow mode slept %v, want >= 30ms", d)
	}
}

// TestRespecEndsStalls holds a Hit in an hour-long stall; replacing the
// spec and then disabling injection each end the stalls in progress.
func TestRespecEndsStalls(t *testing.T) {
	t.Cleanup(Disable)
	for _, end := range []func(){
		func() { Enable(PointStoreLoad + "=error") },
		Disable,
	} {
		if err := Enable(PointServiceQuery + "=slow,delay=1h"); err != nil {
			t.Fatal(err)
		}
		done := make(chan error)
		go func() { done <- Hit(PointServiceQuery) }()
		for Stats()[PointServiceQuery].Fired == 0 {
			time.Sleep(time.Millisecond)
		}
		end()
		if err := <-done; err != nil {
			t.Fatalf("stall ended with %v, want nil", err)
		}
	}
}

func TestAfterAndTimes(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(PointMatcher + "=error,after=3,times=2"); err != nil {
		t.Fatal(err)
	}
	var outcomes []bool
	for i := 0; i < 6; i++ {
		outcomes = append(outcomes, Hit(PointMatcher) != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("hit %d fired=%v, want %v (all: %v)", i+1, outcomes[i], want[i], outcomes)
		}
	}
	st := Stats()[PointMatcher]
	if st.Hits != 6 || st.Fired != 2 || st.Mode != "error" {
		t.Errorf("stats = %+v", st)
	}
}

func TestProbabilityIsDeterministic(t *testing.T) {
	t.Cleanup(Disable)
	run := func() []bool {
		if err := Enable(PointStructJoin + "=error,p=0.5,seed=7"); err != nil {
			t.Fatal(err)
		}
		var fired []bool
		for i := 0; i < 32; i++ {
			fired = append(fired, Hit(PointStructJoin) != nil)
		}
		return fired
	}
	a, b := run(), run()
	some, all := false, true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at hit %d", i)
		}
		some = some || a[i]
		all = all && a[i]
	}
	if !some || all {
		t.Errorf("p=0.5 fired on %v — expected a mix", a)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense",
		"unknown.point=error",
		PointStoreLoad + "=explode",
		PointStoreLoad + "=error,after=x",
		PointStoreLoad + "=error,wat=1",
		PointStoreLoad + "=slow,delay=zzz",
	} {
		if err := Enable(bad); err == nil {
			Disable()
			t.Errorf("Enable(%q) succeeded, want error", bad)
		}
	}
	// A bad spec must not leave a previous one half-disabled.
	if err := Enable(""); err != nil {
		t.Fatalf("Enable(empty) = %v", err)
	}
	if Active() {
		t.Error("empty spec left injection active")
	}
}

func TestCatalogSortedAndComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) < 9 {
		t.Fatalf("catalog has %d points, want >= 9", len(cat))
	}
	for i := 1; i < len(cat); i++ {
		if cat[i-1] >= cat[i] {
			t.Errorf("catalog not sorted at %d: %s >= %s", i, cat[i-1], cat[i])
		}
	}
}
