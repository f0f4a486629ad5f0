package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"tlc"
	"tlc/internal/faultinject"
)

func getJSON[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("bad JSON from %s: %v", url, err)
	}
	return resp.StatusCode, v
}

func TestReadyzTracksRecoveryAndDrain(t *testing.T) {
	srv, ts := newServer(t, Config{})

	// Fresh server: ready.
	status, body := getJSON[map[string]any](t, ts.URL+"/readyz")
	if status != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh readyz = %d %v", status, body)
	}

	// Liveness stays 200 through every state below.
	checkLive := func() {
		t.Helper()
		for _, ep := range []string{"/healthz", "/livez"} {
			resp, err := http.Get(ts.URL + ep)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d during recovery/drain, want 200", ep, resp.StatusCode)
			}
		}
	}

	srv.BeginRecovery()
	srv.RecoveryProgress(12, 3)
	checkLive()
	status, body = getJSON[map[string]any](t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["state"] != "recovering" {
		t.Fatalf("recovering readyz = %d %v", status, body)
	}
	replay := body["replay"].(map[string]any)
	if replay["applied"].(float64) != 12 || replay["skipped"].(float64) != 3 {
		t.Fatalf("replay progress = %v", replay)
	}

	// Mutating endpoints shed with the recovering code; reads still work.
	resp, errBody := postJSON(t, ts.URL+"/update",
		map[string]any{"doc": "site.xml", "op": "delete", "target": "/site/person[1]"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update during recovery = %d %s", resp.StatusCode, errBody)
	}
	if er := decode[errorResponse](t, errBody); er.Code != codeRecovering {
		t.Fatalf("update during recovery code = %q, want %q", er.Code, codeRecovering)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed update carries no Retry-After")
	}
	if resp, _ := postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query during recovery = %d, want 200", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/snapshot?dir="+t.TempDir(), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("snapshot during recovery = %v %v", resp, err)
	}

	srv.EndRecovery(20, 3, 150*time.Millisecond)
	status, body = getJSON[map[string]any](t, ts.URL+"/readyz")
	if status != http.StatusOK || body["ready"] != true {
		t.Fatalf("post-recovery readyz = %d %v", status, body)
	}

	// /varz reports the recovery outcome.
	_, vz := getJSON[map[string]any](t, ts.URL+"/varz")
	rec := vz["recovery"].(map[string]any)
	if rec["state"] != "ok" || rec["applied"].(float64) != 20 {
		t.Fatalf("varz recovery = %v", rec)
	}

	// Draining flips readiness the same way.
	srv.SetDraining()
	checkLive()
	status, body = getJSON[map[string]any](t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["state"] != "draining" {
		t.Fatalf("draining readyz = %d %v", status, body)
	}
	resp, errBody = postJSON(t, ts.URL+"/update",
		map[string]any{"doc": "site.xml", "op": "delete", "target": "/site/person[1]"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update while draining = %d %s", resp.StatusCode, errBody)
	}
}

// TestReadsDuringRecoverySeeCheckpointThenFinal: replay builds on versions
// of its own and publishes once, so a query answered while the server is
// recovering reads the state the database was opened with — here after three
// of five records were replayed — and the first query after recovery reads
// the whole log. (The stall is the replay's own per-record progress hook,
// called right where the recover.replay fault point fires, held open by the
// test: an event to wait on, where the fault point offers only a delay.)
func TestReadsDuringRecoverySeeCheckpointThenFinal(t *testing.T) {
	const persons = `FOR $p IN document("site.xml")//person RETURN $p/name`
	walDir := t.TempDir()
	open := func() *tlc.Database {
		db := tlc.Open()
		if err := db.LoadXMLString("site.xml", siteXML); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	crashed := open()
	if _, err := crashed.AttachWAL(tlc.WALOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := crashed.Update(tlc.UpdateRequest{Doc: "site.xml", Op: tlc.UpdateInsert, Target: "/site",
			Fragment: fmt.Sprintf(`<person id="r%d"><name>R%d</name><age>9</age></person>`, i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	crashed.Close()

	db := open()
	srv, ts := newServer(t, Config{DB: db})
	count := func() int {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": persons})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query = %d %s", resp.StatusCode, body)
		}
		return decode[queryResponse](t, body).Count
	}
	srv.BeginRecovery()
	reached, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		stats, err := db.AttachWAL(tlc.WALOptions{Dir: walDir, OnProgress: func(applied, skipped int) {
			srv.RecoveryProgress(applied, skipped)
			if applied == 3 {
				close(reached)
				<-release
			}
		}})
		srv.EndRecovery(stats.Applied, stats.Skipped, stats.Duration)
		done <- err
	}()
	<-reached
	if status, _ := getJSON[map[string]any](t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during replay = %d, want 503", status)
	}
	if got := count(); got != 3 {
		t.Errorf("query during recovery counted %d persons, want the 3 the database was opened with", got)
	}
	if v, _ := db.DocumentVersion("site.xml"); v != 1 || db.UpdateGeneration() != 0 {
		t.Errorf("during recovery: document version %d at generation %d, want 1 at 0", v, db.UpdateGeneration())
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	if got := count(); got != 8 {
		t.Errorf("query after recovery counted %d persons, want 8", got)
	}
	if v, _ := db.DocumentVersion("site.xml"); v != 6 || db.UpdateGeneration() != 5 {
		t.Errorf("after recovery: document version %d at generation %d, want 6 at 5", v, db.UpdateGeneration())
	}
}

func TestVarzWALSection(t *testing.T) {
	db := tlc.Open()
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(tlc.WALOptions{Dir: t.TempDir(), Fsync: "batch"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, ts := newServer(t, Config{DB: db})

	resp, body := postJSON(t, ts.URL+"/update", map[string]any{
		"doc": "site.xml", "op": "insert", "target": "/site",
		"fragment": "<person id=\"p3\"><name>Dan</name><age>50</age></person>",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update = %d %s", resp.StatusCode, body)
	}

	_, vz := getJSON[map[string]any](t, ts.URL+"/varz")
	wal, ok := vz["wal"].(map[string]any)
	if !ok {
		t.Fatalf("varz has no wal section: %v", vz["wal"])
	}
	if wal["policy"] != "batch" {
		t.Fatalf("wal policy = %v, want batch", wal["policy"])
	}
	if wal["appended"].(float64) != 1 || wal["last_seq"].(float64) != 1 {
		t.Fatalf("wal gauges after one update: %v", wal)
	}
	// A batch that never fills reaches the disk when its BatchDelay fires,
	// not only at Close.
	for deadline := time.Now().Add(5 * time.Second); wal["pending"].(float64) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("batch still pending past its deadline: %v", wal)
		}
		time.Sleep(time.Millisecond)
		_, vz = getJSON[map[string]any](t, ts.URL+"/varz")
		wal = vz["wal"].(map[string]any)
	}
	if wal["synced"].(float64) != 1 {
		t.Fatalf("wal gauges after the batch deadline: %v", wal)
	}
}

// commitStall holds the next commit inside the mutate.commit injection
// point until the fault spec is replaced or disabled.
const commitStall = faultinject.PointMutateCommit + "=slow,delay=1m,times=1"

// armCommitStall installs commitStall (ending any stall in progress, so a
// held update goes on to its commit) and returns a func that waits until
// an update is held in the new stall.
func armCommitStall(t *testing.T) (waitHeld func()) {
	t.Helper()
	if err := faultinject.Enable(commitStall); err != nil {
		t.Fatal(err)
	}
	return func() {
		waitFor(t, func() bool { return faultinject.Stats()[faultinject.PointMutateCommit].Fired == 1 })
	}
}

// heldUpdate posts an /update of davePerson in the background; its reply
// arrives on the returned channel, with a nil response if the request
// failed.
func heldUpdate(t *testing.T, url string) <-chan updateReply {
	out := make(chan updateReply, 1)
	body := `{"doc": "site.xml", "op": "insert", "target": "/site", "fragment": ` + strconv.Quote(davePerson) + `}`
	go func() {
		var r updateReply
		resp, err := http.Post(url+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
		} else {
			defer resp.Body.Close()
			r.resp = resp
			r.body, err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}
		out <- r
	}()
	return out
}

type updateReply struct {
	resp *http.Response
	body []byte
}

// kid is an update a second writer commits while the first is held; the
// inserted person is below siteQuery's age predicate.
func kid(i int) tlc.UpdateRequest {
	return tlc.UpdateRequest{Doc: "site.xml", Op: tlc.UpdateInsert, Target: "/site",
		Fragment: fmt.Sprintf(`<person id="k%d"><name>Kid</name><age>10</age></person>`, i)}
}

// TestUpdateLostRaceIsRetried holds an /update inside its commit, commits
// a second writer's update to the same document meanwhile, then lets the
// first go on: its commit loses the race once, the database retries it
// against the winning version, and it commits. /varz counts the retry.
func TestUpdateLostRaceIsRetried(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	srv, ts := newServer(t, Config{})
	_, v0 := getJSON[varz](t, ts.URL+"/varz")

	waitHeld := armCommitStall(t)
	reply := heldUpdate(t, ts.URL)
	waitHeld()
	if _, err := srv.db.Update(kid(0)); err != nil {
		t.Fatalf("second writer: %v", err)
	}
	faultinject.Disable()

	r := <-reply
	if r.resp == nil {
		t.FailNow()
	}
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("held update = %d %s, want 200", r.resp.StatusCode, r.body)
	}
	if out := decode[updateResponse](t, r.body); out.Conflicts != 1 || out.Version != 3 {
		t.Fatalf("held update = %+v, want 1 conflict and version 3", out)
	}
	if n := queryCount(t, ts.URL); n != 3 {
		t.Fatalf("count = %d, want 3 (Dave committed)", n)
	}
	_, v1 := getJSON[varz](t, ts.URL+"/varz")
	if d := v1.UpdateRetries - v0.UpdateRetries; d != 1 {
		t.Errorf("varz update_retries moved by %d, want 1", d)
	}
}

// TestUpdateConflictExhausted409 holds an /update inside each of its
// commit attempts in turn and commits a second writer's update before
// letting it go on: every attempt loses, and the last loss is a 409
// conflict with a Retry-After, the document holding only the second
// writer's updates.
func TestUpdateConflictExhausted409(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	srv, ts := newServer(t, Config{})

	waitHeld := armCommitStall(t)
	reply := heldUpdate(t, ts.URL)
	for i := 0; i < 3; i++ {
		waitHeld()
		if _, err := srv.db.Update(kid(i)); err != nil {
			t.Fatalf("second writer, update %d: %v", i, err)
		}
		if i < 2 {
			// Lets the held attempt lose, and holds the retry.
			waitHeld = armCommitStall(t)
		}
	}
	faultinject.Disable()

	r := <-reply
	if r.resp == nil {
		t.FailNow()
	}
	if r.resp.StatusCode != http.StatusConflict {
		t.Fatalf("exhausted update = %d %s, want 409", r.resp.StatusCode, r.body)
	}
	if e := decode[errorResponse](t, r.body); e.Code != codeConflict {
		t.Fatalf("code = %q, want %q", e.Code, codeConflict)
	}
	if r.resp.Header.Get("Retry-After") == "" {
		t.Fatal("409 carries no Retry-After")
	}
	if v, _ := srv.db.DocumentVersion("site.xml"); v != 4 {
		t.Fatalf("version = %d, want 4 (the second writer's three updates only)", v)
	}
	if n := queryCount(t, ts.URL); n != 2 {
		t.Fatalf("count = %d, want 2 (Dave never committed)", n)
	}
}
