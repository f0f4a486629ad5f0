package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc/internal/faultinject"
)

// davePerson matches the siteQuery predicate (age > 25), so inserting it
// moves the query's result count from 2 to 3.
const davePerson = `<person id="p9"><name>Dave</name><age>50</age></person>`

type updateResponse struct {
	Doc          string `json:"doc"`
	Version      uint64 `json:"version"`
	Nodes        int    `json:"nodes"`
	NodesAdded   int    `json:"nodes_added"`
	NodesRemoved int    `json:"nodes_removed"`
	StatsDeltas  int    `json:"stats_deltas"`
	Conflicts    int    `json:"conflicts"`
}

func queryCount(t *testing.T, url string) int {
	t.Helper()
	resp, body := postJSON(t, url+"/query", map[string]any{"query": siteQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	return decode[queryResponse](t, body).Count
}

// TestUpdateEndpoint applies insert, replace and delete through POST
// /update and checks each commit is immediately visible to queries — the
// per-document version bump must invalidate the cached plan, not leave a
// stale hit serving pre-update results.
func TestUpdateEndpoint(t *testing.T) {
	_, ts := newServer(t, Config{})
	if n := queryCount(t, ts.URL); n != 2 {
		t.Fatalf("pre-update count = %d, want 2", n)
	}

	// Insert: Dave (age 50) joins the result set.
	resp, body := postJSON(t, ts.URL+"/update", map[string]any{
		"doc": "site.xml", "op": "insert", "target": "/site", "fragment": davePerson,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d: %s", resp.StatusCode, body)
	}
	out := decode[updateResponse](t, body)
	if out.Doc != "site.xml" || out.Version != 2 || out.NodesAdded == 0 || out.Conflicts != 0 {
		t.Fatalf("insert response = %+v", out)
	}
	if n := queryCount(t, ts.URL); n != 3 {
		t.Fatalf("post-insert count = %d, want 3 (stale plan served?)", n)
	}

	// Replace: Bob (age 20, not in the result) becomes Eve (age 60).
	resp, body = postJSON(t, ts.URL+"/update", map[string]any{
		"doc": "site.xml", "op": "replace", "target": "/site/person[2]",
		"fragment": `<person id="p1"><name>Eve</name><age>60</age></person>`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace status = %d: %s", resp.StatusCode, body)
	}
	if out = decode[updateResponse](t, body); out.Version != 3 || out.NodesRemoved == 0 {
		t.Fatalf("replace response = %+v", out)
	}
	if n := queryCount(t, ts.URL); n != 4 {
		t.Fatalf("post-replace count = %d, want 4", n)
	}

	// Delete Dave again.
	resp, body = postJSON(t, ts.URL+"/update", map[string]any{
		"doc": "site.xml", "op": "delete", "target": "/site/person[4]",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d: %s", resp.StatusCode, body)
	}
	if out = decode[updateResponse](t, body); out.Version != 4 || out.NodesRemoved == 0 {
		t.Fatalf("delete response = %+v", out)
	}
	if n := queryCount(t, ts.URL); n != 3 {
		t.Fatalf("post-delete count = %d, want 3", n)
	}

	// /varz mirrors the write path: update gauges and live versions.
	_, vbody := getBody(t, ts.URL+"/varz")
	v := decode[varz](t, vbody)
	if v.Mutate["updates_total"] < 3 {
		t.Errorf("varz mutate.updates_total = %d, want >= 3", v.Mutate["updates_total"])
	}
	if v.Mutate["versions_live"] < 1 {
		t.Errorf("varz mutate.versions_live = %d, want >= 1", v.Mutate["versions_live"])
	}
	if v.Mutate["stats_deltas_applied"] == 0 {
		t.Error("varz mutate.stats_deltas_applied = 0 after three updates")
	}
	// The dictionary gauges: the delete left strings behind that no
	// document holds, and the per-shard entries add up to the totals.
	if live, all := v.Mutate["dict_value_live"], v.Mutate["dict_value_strings"]; live == 0 || all <= live {
		t.Errorf("varz mutate dict_value_live = %d, dict_value_strings = %d, want 0 < live < strings", live, all)
	}
	var tagStrings int64
	for _, sh := range v.Shards {
		tagStrings += int64(sh.DictTagStrings)
	}
	if tagStrings == 0 || tagStrings != v.Mutate["dict_tag_strings"] {
		t.Errorf("varz shards' dict_tag_strings add up to %d, mutate.dict_tag_strings = %d", tagStrings, v.Mutate["dict_tag_strings"])
	}
	if _, ok := v.Breakers["update"]; !ok {
		t.Errorf("varz breakers lack the update endpoint: %v", v.Breakers)
	}
}

// TestUpdateEndpointErrors drives the /update error taxonomy: client
// mistakes are 400, resolvable-but-wrong targets are 422, and the
// document is untouched by any of them.
func TestUpdateEndpointErrors(t *testing.T) {
	_, ts := newServer(t, Config{})
	// The update counters are process-wide, so compare deltas, not absolutes.
	_, vbody := getBody(t, ts.URL+"/varz")
	before := decode[varz](t, vbody).Mutate["updates_total"]

	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update = %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"non-object body", "zap", http.StatusBadRequest, "user_error"},
		{"missing doc", map[string]any{"op": "delete", "target": "/site/person[1]"}, http.StatusBadRequest, "user_error"},
		{"missing target", map[string]any{"doc": "site.xml", "op": "delete"}, http.StatusBadRequest, "user_error"},
		{"unknown op", map[string]any{"doc": "site.xml", "op": "upsert", "target": "/site"}, http.StatusBadRequest, "user_error"},
		{"insert without fragment", map[string]any{"doc": "site.xml", "op": "insert", "target": "/site"}, http.StatusBadRequest, "user_error"},
		{"delete with fragment", map[string]any{"doc": "site.xml", "op": "delete", "target": "/site/person[1]", "fragment": "<x/>"}, http.StatusBadRequest, "user_error"},
		{"bad position", map[string]any{"doc": "site.xml", "op": "insert", "target": "/site", "position": "sideways", "fragment": "<x/>"}, http.StatusBadRequest, "user_error"},
		{"malformed fragment", map[string]any{"doc": "site.xml", "op": "insert", "target": "/site", "fragment": "<unclosed"}, http.StatusBadRequest, "user_error"},
		{"unknown document", map[string]any{"doc": "nope.xml", "op": "insert", "target": "/nope", "fragment": "<x/>"}, http.StatusUnprocessableEntity, "query_error"},
		{"unresolvable target", map[string]any{"doc": "site.xml", "op": "delete", "target": "/site/zebra[1]"}, http.StatusUnprocessableEntity, "query_error"},
		{"delete root", map[string]any{"doc": "site.xml", "op": "delete", "target": "/site"}, http.StatusUnprocessableEntity, "query_error"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/update", c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
			continue
		}
		if e := decode[errorResponse](t, body); e.Code != c.code || e.Error == "" {
			t.Errorf("%s: error = %+v, want code %q", c.name, e, c.code)
		}
	}

	// None of the failures touched the document.
	if n := queryCount(t, ts.URL); n != 2 {
		t.Errorf("count after failed updates = %d, want 2", n)
	}
	_, vbody = getBody(t, ts.URL+"/varz")
	if v := decode[varz](t, vbody); v.Mutate["updates_total"] != before {
		t.Errorf("varz mutate.updates_total moved %d -> %d on failed updates", before, v.Mutate["updates_total"])
	}
}

// TestUpdateBudgetExceeded caps the write's arena-node budget below the
// fragment size and checks the update aborts with 422 budget_exceeded
// before anything commits.
func TestUpdateBudgetExceeded(t *testing.T) {
	_, ts := newServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/update", map[string]any{
		"doc": "site.xml", "op": "insert", "target": "/site",
		"fragment": davePerson, "max_nodes": 2,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s), want 422", resp.StatusCode, body)
	}
	if e := decode[errorResponse](t, body); e.Code != "budget_exceeded" {
		t.Fatalf("code = %q, want budget_exceeded", e.Code)
	}
	if n := queryCount(t, ts.URL); n != 2 {
		t.Errorf("count after budget kill = %d, want 2 (partial commit?)", n)
	}
}

// TestUpdateFaultInjected arms the update-path injection points — the
// handler itself, the pre-commit hook, and the statistics-delta hook —
// and checks each fault reads as a 500 internal with the store still on
// the old version; clearing injection makes the same update succeed.
func TestUpdateFaultInjected(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{BreakerThreshold: 1000})
	ins := map[string]any{"doc": "site.xml", "op": "insert", "target": "/site", "fragment": davePerson}

	for _, point := range []string{
		faultinject.PointServiceUpdate,
		faultinject.PointMutateCommit,
		faultinject.PointMutateStatsDelta,
	} {
		if err := faultinject.Enable(point + "=error"); err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/update", ins)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status = %d (%s), want 500", point, resp.StatusCode, body)
			continue
		}
		if e := decode[errorResponse](t, body); e.Code != "internal" {
			t.Errorf("%s: code = %q, want internal", point, e.Code)
		}
		if n := queryCount(t, ts.URL); n != 2 {
			t.Errorf("%s: count = %d after injected failure, want 2", point, n)
		}
	}

	faultinject.Disable()
	resp, body := postJSON(t, ts.URL+"/update", ins)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos update: status = %d (%s)", resp.StatusCode, body)
	}
	if out := decode[updateResponse](t, body); out.Version != 2 {
		t.Fatalf("post-chaos version = %d, want 2 (failed attempts must not bump)", out.Version)
	}
	if n := queryCount(t, ts.URL); n != 3 {
		t.Errorf("post-chaos count = %d, want 3", n)
	}
}

// TestUpdateBreakerTrips feeds the /update breaker consecutive injected
// 500s past its threshold and checks it opens — shedding with 503 before
// the handler — then closes again after the cooldown probe succeeds.
func TestUpdateBreakerTrips(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, ts := newServer(t, Config{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond})
	ins := map[string]any{"doc": "site.xml", "op": "insert", "target": "/site", "fragment": davePerson}

	if err := faultinject.Enable(faultinject.PointServiceUpdate + "=error,times=2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if resp, _ := postJSON(t, ts.URL+"/update", ins); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500", i, resp.StatusCode)
		}
	}
	resp, body := postJSON(t, ts.URL+"/update", ins)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open status = %d (%s), want 503", resp.StatusCode, body)
	}
	if e := decode[errorResponse](t, body); !strings.Contains(e.Error, "circuit breaker") {
		t.Fatalf("breaker-open error = %q", e.Error)
	}
	// Queries ride a different breaker: reads keep working while writes shed.
	if n := queryCount(t, ts.URL); n != 2 {
		t.Fatalf("query during open update breaker: count = %d, want 2", n)
	}

	// After the cooldown the injection budget is spent, so the probe
	// succeeds and closes the breaker.
	time.Sleep(60 * time.Millisecond)
	resp, body = postJSON(t, ts.URL+"/update", ins)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status = %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestUpdateConcurrentWithQueries hammers concurrent reads and writes on
// one document; under -race this exercises reader generation pinning
// against copy-on-write commits. The inserted persons are all below the
// query's age predicate, so every read must return exactly 2 results —
// any torn read or half-applied update shows up as a wrong count.
func TestUpdateConcurrentWithQueries(t *testing.T) {
	_, ts := newServer(t, Config{MaxConcurrent: 4, QueueDepth: 128, DefaultTimeout: 30 * time.Second})
	_, vbody := getBody(t, ts.URL+"/varz")
	before := decode[varz](t, vbody).Mutate["updates_total"]
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
				if out := decode[queryResponse](t, body); out.Count != 2 {
					t.Errorf("concurrent read saw %d results, want 2", out.Count)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			frag := fmt.Sprintf(`<person id="x%d"><name>Kid</name><age>10</age></person>`, i)
			resp, body := postJSON(t, ts.URL+"/update", map[string]any{
				"doc": "site.xml", "op": "insert", "target": "/site", "fragment": frag,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update status = %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Wait()

	_, vbody = getBody(t, ts.URL+"/varz")
	v := decode[varz](t, vbody)
	if v.Mutate["updates_total"]-before != 8 {
		t.Errorf("varz mutate.updates_total moved %d -> %d, want +8", before, v.Mutate["updates_total"])
	}
	if n := queryCount(t, ts.URL); n != 2 {
		t.Errorf("final count = %d, want 2", n)
	}
}
