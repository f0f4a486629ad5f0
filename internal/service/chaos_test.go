package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc"
	"tlc/internal/faultinject"
)

// joinQuery exercises a value join so physical.valuejoin faults fire on the
// evaluation path: each person matches only itself on age, so it returns 3.
const joinQuery = `FOR $a IN document("site.xml")//person
                   FOR $b IN document("site.xml")//person
                   WHERE $a/age = $b/age RETURN $a/name`

// TestInjectedFaultTaxonomy arms each service-layer injection point in turn
// and checks the fault surfaces with the right HTTP status and taxonomy
// code: injected faults are internal errors, never blamed on the client.
func TestInjectedFaultTaxonomy(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{})
	cases := []struct {
		point string
		hit   func() (*http.Response, []byte)
	}{
		{faultinject.PointServiceQuery, func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
		}},
		{faultinject.PointServiceExplain, func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/explain", map[string]any{"query": siteQuery})
		}},
		{faultinject.PointServiceProfile, func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/profile", map[string]any{"query": siteQuery})
		}},
		{faultinject.PointServiceLoad, func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/load?name=x.xml", "application/xml", strings.NewReader("<r/>"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp, readAll(t, resp)
		}},
		{faultinject.PointMatcher, func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
		}},
		{faultinject.PointValueJoin, func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/query", map[string]any{"query": joinQuery})
		}},
		{faultinject.PointStoreLoad, func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/load?name=y.xml", "application/xml", strings.NewReader("<r/>"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp, readAll(t, resp)
		}},
	}
	for _, c := range cases {
		if err := faultinject.Enable(c.point + "=error"); err != nil {
			t.Fatal(err)
		}
		resp, body := c.hit()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status = %d (%s), want 500", c.point, resp.StatusCode, body)
			continue
		}
		e := decode[errorResponse](t, body)
		if e.Code != "internal" {
			t.Errorf("%s: code = %q, want internal", c.point, e.Code)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", c.point)
		}
	}
	// With injection cleared the very same requests succeed: faults never
	// poison server state.
	faultinject.Disable()
	if resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": joinQuery}); resp.StatusCode != http.StatusOK {
		t.Errorf("post-chaos query: status = %d (%s)", resp.StatusCode, body)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHandlerPanicContained arms a panic at the /query handler itself and
// checks the barrier converts it to a 500 while the process — and the
// server — keep serving, with the recovery visible in /varz.
func TestHandlerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{})
	_, vbefore := getBody(t, ts.URL+"/varz")
	before := decode[varz](t, vbefore).PanicsRecovered

	if err := faultinject.Enable(faultinject.PointServiceQuery + "=panic,times=1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, body)
	}
	e := decode[errorResponse](t, body)
	if e.Code != "internal" || !strings.Contains(e.Error, "panic") {
		t.Errorf("error = %+v, want an internal panic report", e)
	}

	// The injection window is spent: the next request works.
	resp, body = postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after panic: status = %d (%s), want 200", resp.StatusCode, body)
	}
	_, vafter := getBody(t, ts.URL+"/varz")
	if after := decode[varz](t, vafter).PanicsRecovered; after <= before {
		t.Errorf("panics_recovered = %d, want > %d", after, before)
	}
}

// TestBudgetViaRequestFields checks a client-set resource budget aborts
// with 422 budget_exceeded, shows up in the /varz governor counters, and
// never leaks into the next, unbudgeted request.
func TestBudgetViaRequestFields(t *testing.T) {
	_, ts := newServer(t, Config{})
	cartesian := `FOR $a IN document("site.xml")//person
	              FOR $b IN document("site.xml")//person
	              RETURN <pair>{$a/name}{$b/name}</pair>`
	_, vbefore := getBody(t, ts.URL+"/varz")
	before := decode[varz](t, vbefore).Governor["result_cardinality"]

	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": cartesian, "max_result": 3})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s), want 422", resp.StatusCode, body)
	}
	e := decode[errorResponse](t, body)
	if e.Code != "budget_exceeded" {
		t.Errorf("code = %q, want budget_exceeded", e.Code)
	}
	if !strings.Contains(e.Error, "result_cardinality") {
		t.Errorf("error = %q, want the tripped resource named", e.Error)
	}

	// Budgets are per query: the same query without one completes.
	resp, body = postJSON(t, ts.URL+"/query", map[string]any{"query": cartesian})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unbudgeted rerun: status = %d (%s)", resp.StatusCode, body)
	}
	if out := decode[queryResponse](t, body); out.Count != 9 {
		t.Errorf("count = %d, want the full 9-pair product", out.Count)
	}

	_, vafter := getBody(t, ts.URL+"/varz")
	if after := decode[varz](t, vafter).Governor["result_cardinality"]; after <= before {
		t.Errorf("governor result_cardinality kills = %d, want > %d", after, before)
	}
}

// TestEvalDeadline504Code checks an evaluation that outlives its request
// deadline comes back 504 with code "timeout": a slow injection inside the
// matcher holds evaluation past a 50ms deadline, and the operator poll
// notices on its next check.
func TestEvalDeadline504Code(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{})
	if err := faultinject.Enable(faultinject.PointMatcher + "=slow,delay=250ms"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery, "timeout_ms": 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if e := decode[errorResponse](t, body); e.Code != "timeout" {
		t.Errorf("code = %q, want timeout", e.Code)
	}
}

// TestShedCodesAndRetryAfter reruns the overload scenario checking the
// robustness contract on top of the statuses: both shed responses carry
// taxonomy codes and a Retry-After hint, and /varz counts them as shed.
func TestShedCodesAndRetryAfter(t *testing.T) {
	db := newSiteDB(t)
	srv, err := New(Config{DB: db, MaxConcurrent: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	srv.preEval = func() {
		once.Do(func() {
			close(entered)
			<-block
		})
	}
	ts := newTestListener(t, srv)

	aDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts+"/query", map[string]any{"query": siteQuery})
		aDone <- resp.StatusCode
	}()
	<-entered

	type shed struct {
		status int
		code   string
		retry  string
	}
	bDone := make(chan shed, 1)
	go func() {
		resp, body := postJSON(t, ts+"/query", map[string]any{"query": siteQuery, "timeout_ms": 300})
		bDone <- shed{resp.StatusCode, decode[errorResponse](t, body).Code, resp.Header.Get("Retry-After")}
	}()
	waitFor(t, func() bool { return srv.limiter.Queued() == 1 })

	resp, body := postJSON(t, ts+"/query", map[string]any{"query": siteQuery, "timeout_ms": 300})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d (%s), want 429", resp.StatusCode, body)
	}
	if e := decode[errorResponse](t, body); e.Code != "overloaded" {
		t.Errorf("queue-full code = %q, want overloaded", e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	b := <-bDone
	if b.status != http.StatusServiceUnavailable || b.code != "unavailable" {
		t.Errorf("queued-deadline response = %+v, want 503 unavailable", b)
	}
	if b.retry == "" {
		t.Error("503 without Retry-After")
	}
	close(block)
	if code := <-aDone; code != http.StatusOK {
		t.Errorf("request A status = %d, want 200", code)
	}

	_, vbody := getBody(t, ts+"/varz")
	if v := decode[varz](t, vbody); v.Shed != 2 {
		t.Errorf("varz shed_total = %d, want 2", v.Shed)
	}
}

// TestPoisonQueryLeavesHealthyQueriesServed interleaves a query that
// panics on every run (a value join under physical.valuejoin=panic) with a
// healthy one that has no join: each poison run is a 500 for that request
// alone, and the healthy query stays 200 throughout, however many poison
// runs came before it.
func TestPoisonQueryLeavesHealthyQueriesServed(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{})
	if err := faultinject.Enable(faultinject.PointValueJoin + "=panic"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": joinQuery})
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("round %d, poison %d: status = %d (%s), want 500", round, i, resp.StatusCode, body)
			}
			if e := decode[errorResponse](t, body); e.Code != "internal" {
				t.Fatalf("round %d, poison %d: code = %q, want internal", round, i, e.Code)
			}
		}
		resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: healthy query after 5 poison runs: status = %d (%s), want 200", round, resp.StatusCode, body)
		}
		if out := decode[queryResponse](t, body); out.Count != 2 {
			t.Fatalf("round %d: healthy query count = %d, want 2", round, out.Count)
		}
	}
}

// TestVarzFaultsVisibleOnlyWhenArmed checks /varz advertises the armed
// injection points (an operator must be able to tell a chaos run from an
// outage) and hides the section entirely in normal operation.
func TestVarzFaultsVisibleOnlyWhenArmed(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{})
	if err := faultinject.Enable(faultinject.PointServiceQuery + "=error,times=1"); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	_, vbody := getBody(t, ts.URL+"/varz")
	v := decode[varz](t, vbody)
	st, ok := v.Faults[faultinject.PointServiceQuery]
	if !ok {
		t.Fatalf("varz faults = %v, want %s present", v.Faults, faultinject.PointServiceQuery)
	}
	if st.Fired != 1 || st.Mode != "error" {
		t.Errorf("fault counts = %+v", st)
	}
	faultinject.Disable()
	_, vbody = getBody(t, ts.URL+"/varz")
	if v := decode[varz](t, vbody); v.Faults != nil {
		t.Errorf("varz faults = %v after disable, want absent", v.Faults)
	}
}

// TestChaosBarrage hammers the server with concurrent queries and
// document loads while probabilistic faults fire throughout.
// Every response must be a well-formed member of the taxonomy, the
// process must survive, goroutines must not leak, and after disarming the
// results must be byte-identical to a pre-chaos baseline.
func TestChaosBarrage(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db := newSiteDB(t)
	srv, err := New(Config{DB: db, MaxConcurrent: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestListener(t, srv)

	baselineQ := `FOR $p IN document("site.xml")//person ORDER BY $p/age RETURN $p/name`
	resp, body := postJSON(t, ts+"/query", map[string]any{"query": baselineQ})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline: %d (%s)", resp.StatusCode, body)
	}
	baseline := decode[queryResponse](t, body).Results

	http.DefaultClient.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	baseGoroutines := runtime.NumGoroutine()

	spec := faultinject.PointMatcher + "=error,p=0.3,seed=11;" +
		faultinject.PointValueJoin + "=panic,p=0.2,seed=23;" +
		faultinject.PointPlanCacheFill + "=error,p=0.1,seed=5;" +
		faultinject.PointServiceQuery + "=slow,delay=1ms"
	if err := faultinject.Enable(spec); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q := joinQuery
				if i%3 == 0 {
					q = baselineQ
				}
				resp, body := postJSON(t, ts+"/query", map[string]any{"query": q})
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusInternalServerError:
					if e := decode[errorResponse](t, body); e.Code != "internal" {
						t.Errorf("500 with code %q (%s)", e.Code, body)
					}
				default:
					t.Errorf("unexpected status %d (%s)", resp.StatusCode, body)
				}
			}
		}(g)
	}
	// Concurrent loads publish new directories mid-barrage while cached
	// plans run: under -race this doubles as the load-vs-evaluation race
	// check.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			resp, err := http.Post(fmt.Sprintf("%s/load?name=doc%d.xml", ts, i),
				"application/xml", strings.NewReader("<r><x>1</x></r>"))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("load status = %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()

	// Disarm: the same baseline query must return the same bytes.
	faultinject.Disable()
	resp, body = postJSON(t, ts+"/query", map[string]any{"query": baselineQ})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos baseline: %d (%s)", resp.StatusCode, body)
	}
	after := decode[queryResponse](t, body).Results
	if len(after) != len(baseline) {
		t.Fatalf("post-chaos count = %d, want %d", len(after), len(baseline))
	}
	for i := range after {
		if after[i] != baseline[i] {
			t.Errorf("result %d differs after chaos: %q vs %q", i, after[i], baseline[i])
		}
	}

	// No goroutine leak: after idle connections close and in-flight work
	// drains, the count returns to (near) the pre-barrage level.
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+8
	})
}

// newSiteDB returns a fresh database with the shared 3-person document.
func newSiteDB(t *testing.T) *tlc.Database {
	t.Helper()
	db := tlc.Open()
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestListener mounts an already-constructed Server (tests that need to
// install the preEval hook or poke internals build it themselves) and
// returns its base URL.
func newTestListener(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
