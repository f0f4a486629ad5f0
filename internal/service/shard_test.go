package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"tlc"
	"tlc/internal/faultinject"
)

// sameShardName returns an unloaded document name routing to the same shard
// as ref (the routing is a pure name hash, so the search is deterministic).
func sameShardName(t *testing.T, db *tlc.Database, ref string) string {
	t.Helper()
	target := db.ShardOfDocument(ref)
	for i := 0; i < 1<<16; i++ {
		if name := fmt.Sprintf("probe%d.xml", i); db.ShardOfDocument(name) == target {
			return name
		}
	}
	t.Fatal("no name found on the shard of " + ref)
	return ""
}

// TestSlowLoadBlocksNoQuery is the isolation regression test: a load stalled
// by an injected store.load fault — on the very shard the query reads — must
// not delay the query, which is answered from the document set it pinned,
// without the loading document.
func TestSlowLoadBlocksNoQuery(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	db := tlc.Open(tlc.WithShards(4))
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db})
	loading := sameShardName(t, db, "site.xml")

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
		t.Fatalf("query during a same-shard load: status = %d (%s)", resp.StatusCode, body)
	}
	if elapsed >= 300*time.Millisecond {
		t.Errorf("query took %v during a %v same-shard load; it waited for the load", elapsed, slow)
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
	// it was absent; its load makes that plan, and only it, stale.
	resp, body = postJSON(t, ts.URL+"/query", probe)
	if out := decode[queryResponse](t, body); resp.StatusCode != http.StatusOK || out.Count != 1 || out.CacheHit {
		t.Errorf("probe after the load: status %d, %+v; want 1 result from a recompiled plan", resp.StatusCode, out)
	}
	_, body = postJSON(t, ts.URL+"/query", map[string]any{"query": siteQuery})
	if !decode[queryResponse](t, body).CacheHit {
		t.Error("the load evicted the plan of a document it did not touch")
	}
}

// TestVarzShardGauges checks /varz reports per-shard document counts that
// sum to the whole-database figure.
func TestVarzShardGauges(t *testing.T) {
	db := tlc.Open(tlc.WithShards(4))
	if err := db.LoadXMLString("site.xml", siteXML); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString("b.xml", "<r><x>1</x></r>"); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db})
	_, body := getBody(t, ts.URL+"/varz")
	v := decode[varz](t, body)
	if len(v.Shards) != 4 {
		t.Fatalf("varz shards = %d entries, want 4", len(v.Shards))
	}
	docs := 0
	for i, sv := range v.Shards {
		if sv.Shard != i {
			t.Errorf("shard entry %d reports index %d", i, sv.Shard)
		}
		docs += sv.Documents
	}
	if docs != 2 || v.Documents != 2 {
		t.Errorf("per-shard documents sum = %d, whole-database documents = %d, want 2 and 2", docs, v.Documents)
	}
}
