package tlc

import (
	"errors"
	"strings"
	"testing"

	"tlc/internal/failure"
	"tlc/internal/faultinject"
)

// TestPanicContainedSerial checks a panic deep inside operator evaluation
// — in the matcher or in the value join — comes back as a typed
// *failure.PanicError instead of unwinding through the caller: the barrier
// every engine run passes through.
func TestPanicContainedSerial(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	// PointStructJoin is exercised by the physical-layer tests: the
	// translators compile structural relationships into pattern-edge joins
	// inside the matcher, so no end-to-end plan reaches the standalone
	// StructuralJoin operator.
	for _, point := range []string{faultinject.PointValueJoin, faultinject.PointMatcher} {
		if err := faultinject.Enable(point + "=panic"); err != nil {
			t.Fatal(err)
		}
		_, err := db.Query(`FOR $a IN document("site.xml")//person
		                    FOR $b IN document("site.xml")//person
		                    WHERE $a/age = $b/age RETURN $a/name`)
		var pe *failure.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *failure.PanicError", point, err)
		}
		if !strings.Contains(pe.Error(), "internal: panic") {
			t.Errorf("%s: message %q", point, pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Errorf("%s: no stack captured", point)
		}
	}
}

// TestInjectedErrorsSurfaceTyped checks ModeError injections at every
// engine-level point surface as ErrInjected through the public API with
// the operator-label wrapping intact.
func TestInjectedErrorsSurfaceTyped(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	q := `FOR $a IN document("site.xml")//person
	      FOR $b IN document("site.xml")//person
	      WHERE $a/age = $b/age RETURN $a/name`
	for _, point := range []string{faultinject.PointMatcher, faultinject.PointValueJoin} {
		if err := faultinject.Enable(point + "=error"); err != nil {
			t.Fatal(err)
		}
		_, err := db.Query(q)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s: err = %v, want ErrInjected", point, err)
		}
	}
	// With injection disabled the same query runs clean.
	faultinject.Disable()
	if _, err := db.Query(q); err != nil {
		t.Errorf("after Disable: %v", err)
	}
}

// TestInjectionDisabledParity checks the chaos instrumentation is inert
// when disabled: results with the fault package never armed are identical
// to results after arming and disarming it.
func TestInjectionDisabledParity(t *testing.T) {
	db := Open()
	if err := db.LoadXMLString("site.xml", reuseXML); err != nil {
		t.Fatal(err)
	}
	q := `FOR $p IN document("site.xml")//person ORDER BY $p/age RETURN $p/name`
	before, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable(faultinject.PointMatcher + "=slow,delay=1ms"); err != nil {
		t.Fatal(err)
	}
	faultinject.Disable()
	after, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.XML() != after.XML() {
		t.Error("arming and disarming injection changed results")
	}
}
