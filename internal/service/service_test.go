package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc"
	"tlc/internal/faultinject"
	"tlc/internal/physical"
)

const siteXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>20</age></person>
  <person id="p2"><name>Carol</name><age>40</age></person>
</site>`

const siteQuery = `FOR $p IN document("site.xml")//person WHERE $p/age > 25 RETURN $p/name`

func newServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		db := tlc.Open()
		if err := db.LoadXMLString("site.xml", siteXML); err != nil {
			t.Fatal(err)
		}
		cfg.DB = db
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad response JSON %q: %v", data, err)
	}
	return v
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	out := decode[queryResponse](t, body)
	if out.Count != 2 || len(out.Results) != 2 {
		t.Fatalf("got %d results: %v", out.Count, out.Results)
	}
	if out.Engine != "TLC" {
		t.Errorf("engine = %q", out.Engine)
	}
	if !strings.Contains(out.Results[0], "Alice") {
		t.Errorf("first result = %q", out.Results[0])
	}
	if out.CacheHit {
		t.Error("first request reported a cache hit")
	}
}

func TestQueryEngines(t *testing.T) {
	_, ts := newServer(t, Config{})
	for _, eng := range []string{"TLC", "OPT", "GTP", "TAX", "NAV"} {
		resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery, "engine": eng})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d, body = %s", eng, resp.StatusCode, body)
			continue
		}
		if out := decode[queryResponse](t, body); out.Count != 2 {
			t.Errorf("%s: count = %d, want 2", eng, out.Count)
		}
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, ts := newServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"missing query", map[string]any{}, http.StatusBadRequest},
		{"bad engine", map[string]any{"query": siteQuery, "engine": "SQL"}, http.StatusBadRequest},
		{"parse error", map[string]any{"query": "NOT XQUERY ((("}, http.StatusBadRequest},
		{"unknown document", map[string]any{"query": `FOR $p IN document("nope.xml")//p RETURN $p`}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/query", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		if e := decode[errorResponse](t, body); e.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/query", "not an object"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-object body: status = %d", resp.StatusCode)
	}
}

// TestExplosionMapsToQueryError lowers the matcher's alternative bound so a
// GTP extension over a multi-name person explodes, and checks the typed
// physical.ExplosionError reaches the client as 422 query_error — the
// query's problem, not an internal fault.
func TestExplosionMapsToQueryError(t *testing.T) {
	restore := physical.SetMaxAlternatives(1)
	defer restore()
	db := tlc.Open()
	const doc = `<site><person><name>A</name><name>B</name><name>C</name></person></site>`
	if err := db.LoadXMLString("fat.xml", doc); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db})
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{
		"query":  `FOR $p IN document("fat.xml")//person RETURN $p/name`,
		"engine": "GTP",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s), want 422", resp.StatusCode, body)
	}
	e := decode[errorResponse](t, body)
	if e.Code != "query_error" {
		t.Errorf("code = %q, want query_error", e.Code)
	}
	if !strings.Contains(e.Error, "explode") {
		t.Errorf("error = %q, want the explosion message", e.Error)
	}
}

func TestCacheHitAcrossRequests(t *testing.T) {
	_, ts := newServer(t, Config{})
	postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out := decode[queryResponse](t, body); !out.CacheHit {
		t.Error("second identical request missed the plan cache")
	}
	// The acceptance check: /varz shows plan-cache hits > 0.
	vresp, vbody := getBody(t, ts.URL+"/varz")
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("varz status = %d", vresp.StatusCode)
	}
	v := decode[varz](t, vbody)
	if v.PlanCache.Hits == 0 {
		t.Errorf("varz plan_cache.hits = 0 after repeated query; varz = %s", vbody)
	}
	if v.PlanCache.Misses == 0 {
		t.Error("varz plan_cache.misses = 0")
	}
	// plan_cache carries exactly the five counters an operator reads.
	var raw struct {
		PlanCache map[string]json.RawMessage `json:"plan_cache"`
	}
	if err := json.Unmarshal(vbody, &raw); err != nil {
		t.Fatal(err)
	}
	var fields []string
	for k := range raw.PlanCache {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	if got, want := strings.Join(fields, " "), "capacity evictions hits misses size"; got != want {
		t.Errorf("varz plan_cache fields = %q, want %q", got, want)
	}
	if v.Requests < 2 {
		t.Errorf("varz requests_total = %d, want >= 2", v.Requests)
	}
	if v.Latency.Count < 2 {
		t.Errorf("varz latency count = %d, want >= 2", v.Latency.Count)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestExplainAndProfileEndpoints(t *testing.T) {
	_, ts := newServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/explain", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d: %s", resp.StatusCode, body)
	}
	ex := decode[map[string]string](t, body)
	if !strings.Contains(ex["plan"], "Select") {
		t.Errorf("explain plan = %q, want an operator tree", ex["plan"])
	}

	resp, body = postJSON(t, ts.URL+"/profile", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status = %d: %s", resp.StatusCode, body)
	}
	pr := decode[map[string]string](t, body)
	if !strings.Contains(pr["profile"], "trees") {
		t.Errorf("profile = %q, want per-operator cardinalities", pr["profile"])
	}

	// The navigational engine has no plan to profile.
	resp, _ = postJSON(t, ts.URL+"/profile", map[string]any{"query": siteQuery, "engine": "NAV"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("NAV profile status = %d, want 400", resp.StatusCode)
	}
}

func TestLoadAndDocumentsEndpoints(t *testing.T) {
	db := tlc.Open()
	_, ts := newServer(t, Config{DB: db})

	// No documents yet.
	_, body := getBody(t, ts.URL+"/documents")
	docs := decode[map[string]json.RawMessage](t, body)
	var names []string
	json.Unmarshal(docs["documents"], &names)
	if len(names) != 0 {
		t.Fatalf("fresh server has documents: %v", docs)
	}

	// Load an XML body.
	resp, err := http.Post(ts.URL+"/load?name=site.xml", "application/xml", strings.NewReader(siteXML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d", resp.StatusCode)
	}

	// Load a generated XMark document.
	resp, err = http.Post(ts.URL+"/load?name=auction.xml&xmark=0.05", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("xmark load status = %d", resp.StatusCode)
	}

	_, body = getBody(t, ts.URL+"/documents")
	docs = decode[map[string]json.RawMessage](t, body)
	names = nil
	json.Unmarshal(docs["documents"], &names)
	var versions map[string]uint64
	json.Unmarshal(docs["versions"], &versions)
	if len(versions) != 2 {
		t.Fatalf("versions = %v, want 2 entries", versions)
	}
	if len(names) != 2 {
		t.Fatalf("documents = %v, want 2", docs)
	}

	// The loaded documents answer queries.
	resp2, qbody := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp2.StatusCode, qbody)
	}

	// Load errors surface as 400.
	resp, err = http.Post(ts.URL+"/load?name=bad.xml", "application/xml", strings.NewReader("<unclosed"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad XML load status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/load", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("load without name: status = %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestDeadlineExceededMidPlan sends a deliberately expensive Cartesian
// query with a 50ms deadline and requires the 504 to come back well under
// a second: the deadline must reach the physical operator loops through
// the whole HTTP/admission/cache stack.
func TestDeadlineExceededMidPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an XMark document")
	}
	db := tlc.Open()
	if err := db.LoadXMark("auction.xml", 0.5); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db})
	q := `FOR $p IN document("auction.xml")//person
	      FOR $i IN document("auction.xml")//item
	      RETURN <pair>{$p/name}{$i/location}</pair>`
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": q, "timeout_ms": 50})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if e := decode[errorResponse](t, body); !strings.Contains(e.Error, "deadline") {
		t.Errorf("error = %q, want a deadline error", e.Error)
	}
	if elapsed > time.Second {
		t.Errorf("cancellation took %v, want well under 1s", elapsed)
	}
}

// TestOverloadShedding holds the single evaluation slot with the preEval
// test hook, fills the one-deep wait queue, and checks the next request
// is shed with 429 while the queued one times out with 503.
func TestOverloadShedding(t *testing.T) {
	db := tlc.Open()
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: db, MaxConcurrent: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The hook must be installed before the listener goroutine starts so
	// handlers observe it without a data race; only the first evaluation
	// (request A) parks — B and C never reach evaluation.
	entered := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	srv.preEval = func() {
		once.Do(func() {
			close(entered)
			<-block
		})
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Request A takes the slot and parks in preEval.
	aDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
		aDone <- resp.StatusCode
	}()
	<-entered

	// Request B queues, with a deadline short enough to give up there.
	bDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery, "timeout_ms": 300})
		bDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.limiter.Queued() == 1 })

	// Request C finds slot and queue both full: shed immediately.
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery, "timeout_ms": 300})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request C status = %d (%s), want 429", resp.StatusCode, body)
	}

	// B's admission deadline expires while A still holds the slot.
	if code := <-bDone; code != http.StatusServiceUnavailable {
		t.Errorf("request B status = %d, want 503", code)
	}
	// Unblock A; it finishes normally.
	close(block)
	if code := <-aDone; code != http.StatusOK {
		t.Errorf("request A status = %d, want 200", code)
	}

	// The shed responses are visible in /varz.
	_, vbody := getBody(t, ts.URL+"/varz")
	v := decode[varz](t, vbody)
	if v.ByStatus["429"] != 1 || v.ByStatus["503"] != 1 {
		t.Errorf("varz responses_by_status = %v, want one 429 and one 503", v.ByStatus)
	}
	if v.Errors < 2 {
		t.Errorf("varz errors_total = %d, want >= 2", v.Errors)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestConcurrentQueriesAndLoads hammers the server with concurrent
// queries and document loads with no lock between them; under -race this
// validates that loads publish by atomic swap and queries read what they
// pinned.
func TestConcurrentQueriesAndLoads(t *testing.T) {
	db := tlc.Open()
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db, MaxConcurrent: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status = %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			url := fmt.Sprintf("%s/load?name=doc%d.xml", ts.URL, i)
			resp, err := http.Post(url, "application/xml", strings.NewReader("<r><x>1</x></r>"))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("load status = %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// TestSlowLoadBlocksNoQuery is the isolation regression test: a load stalled
// by an injected store.load fault — into the very store the query reads —
// must not delay the query, which is answered from the document set it
// pinned, without the loading document.
func TestSlowLoadBlocksNoQuery(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db := tlc.Open()
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db})
	const loading = "probe.xml"

	const slow = 600 * time.Millisecond
	if err := faultinject.Enable(fmt.Sprintf("%s=slow,delay=%s,times=1", faultinject.PointStoreLoad, slow)); err != nil {
		t.Fatal(err)
	}
	loadDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/load?name="+loading, "application/xml", strings.NewReader("<r><x>1</x></r>"))
		if err != nil {
			loadDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("load status = %d", resp.StatusCode)
		}
		loadDone <- err
	}()
	for faultinject.Stats()[faultinject.PointStoreLoad].Fired == 0 {
		time.Sleep(time.Millisecond)
	}

	begin := time.Now()
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	elapsed := time.Since(begin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query during a load: status = %d (%s)", resp.StatusCode, body)
	}
	if elapsed >= 300*time.Millisecond {
		t.Errorf("query took %v during a %v load; it waited for the load", elapsed, slow)
	}
	// The loading document does not exist for queries until it is whole.
	probe := map[string]any{"query": fmt.Sprintf(`FOR $x IN document(%q)//x RETURN $x`, loading)}
	if resp, body := postJSON(t, ts.URL+"/query", probe); resp.StatusCode == http.StatusOK {
		t.Errorf("query over the loading document was answered before the load published it: %s", body)
	}
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}
	// The plan the failed probe left in the cache named the document while
	// it was absent; it reads the document only when it runs, so it stays
	// cached and now answers from it.
	resp, body = postJSON(t, ts.URL+"/query", probe)
	if out := decode[queryResponse](t, body); resp.StatusCode != http.StatusOK || out.Count != 1 || !out.CacheHit {
		t.Errorf("probe after the load: status %d, %+v; want 1 result from the cached plan", resp.StatusCode, out)
	}
	_, body = postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if !decode[queryResponse](t, body).CacheHit {
		t.Error("the load evicted the plan of a document it did not touch")
	}
}

// TestSnapshotEndpoint: POST /snapshot writes a snapshot that reopens into
// a database answering the same queries, and /varz reports the snapshot
// gauges.
func TestSnapshotEndpoint(t *testing.T) {
	_, ts := newServer(t, Config{})
	dir := t.TempDir()

	// GET is rejected; missing ?dir= is rejected.
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /snapshot = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /snapshot without dir = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/snapshot?dir="+dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Dir       string `json:"dir"`
		Bytes     int64  `json:"bytes"`
		Documents int    `json:"documents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot = %d, want 200", resp.StatusCode)
	}
	if out.Documents != 1 || out.Bytes <= 0 {
		t.Fatalf("snapshot response = %+v", out)
	}

	// The written snapshot opens into an equivalent database.
	snap, err := tlc.OpenSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	res, err := snap.Query(siteQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("snapshot query returned %d trees, want 2", res.Len())
	}

	// /varz reports the write and, for a snapshot-backed server, the
	// mapped bytes.
	resp, err = http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var vz struct {
		Snapshot map[string]int64 `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vz.Snapshot["written_total"] != 1 || vz.Snapshot["last_bytes"] != out.Bytes {
		t.Fatalf("varz snapshot gauges = %v", vz.Snapshot)
	}

	_, ts2 := newServer(t, Config{DB: snap})
	resp, err = http.Get(ts2.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&vz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vz.Snapshot["mapped_bytes"] <= 0 {
		t.Fatalf("mapped_bytes = %d, want > 0", vz.Snapshot["mapped_bytes"])
	}
}
