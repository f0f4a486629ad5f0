package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"tlc"
	"tlc/internal/store"
)

// The tests cover the driver's own logic. None of them starts a server or
// times a workload, so the package stays fast enough for tier-1.

func allStreams(seed int64) map[string][]Request {
	out := map[string][]Request{}
	for _, sp := range specs {
		warm, main := workloadStreams(config{seed: seed, seconds: defaultSeconds}, sp)
		out[sp.name] = append(warm, main...)
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	a, b, c := allStreams(7), allStreams(7), allStreams(8)
	for _, sp := range specs {
		if len(a[sp.name]) == 0 {
			t.Fatalf("%s: empty stream", sp.name)
		}
		if streamHash(a[sp.name]) != streamHash(b[sp.name]) {
			t.Errorf("%s: same seed gave two different streams", sp.name)
		}
		if streamHash(a[sp.name]) == streamHash(c[sp.name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
	}
	if !bytes.Equal(genDocument(0.02), genDocument(0.02)) {
		t.Error("the document must be the same on every call")
	}
}

func TestHotStreamIssuesEveryQueryEquallyOften(t *testing.T) {
	const passes = 5
	counts, variants := map[string]int{}, 0
	stream := hotStream(3, passes)
	for _, r := range stream {
		if r.Tmpl[len(r.Tmpl)-1] == 'v' {
			variants++
		} else {
			counts[r.Tmpl]++
		}
	}
	if len(counts) != 23 {
		t.Fatalf("%d base queries, want 23", len(counts))
	}
	for id, n := range counts {
		if n != passes {
			t.Errorf("%s issued %d times, want %d", id, n, passes)
		}
	}
	if share := float64(variants) / float64(len(stream)); share < 0.2 || share > 0.3 {
		t.Errorf("variant share %.2f, want about one in four", share)
	}
}

func TestColdTemplatesAreDistinctAndRun(t *testing.T) {
	stream := coldStream(5, 0.02)
	if len(stream) != coldTemplates {
		t.Fatalf("%d templates, want %d", len(stream), coldTemplates)
	}
	db := tlc.Open(tlc.WithShards(1))
	if err := db.LoadXML(docName, bytes.NewReader(genDocument(0.02))); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range stream {
		canon, err := tlc.Canonicalize(r.Query)
		if err != nil {
			t.Fatalf("%s: %v", r.Tmpl, err)
		}
		if seen[canon.Struct] {
			t.Fatalf("%s repeats a structural signature: containment could serve it", r.Tmpl)
		}
		seen[canon.Struct] = true
		if _, err := db.Query(r.Query); err != nil {
			t.Fatalf("%s does not evaluate: %v\n%s", r.Tmpl, err, r.Query)
		}
	}
}

// TestUpdateScriptIsAlwaysApplicable replays a long script on the slot
// model: every delete and replace must find its fragment, every insert an
// empty slot, and no slot is edited twice within slotQuiet updates — the
// property that lets two in-flight updates commit in either order.
func TestUpdateScriptIsAlwaysApplicable(t *testing.T) {
	state, last := slotState{}, map[int]int{}
	for i, r := range updateScript(11, "test", 0.02, 5000) {
		u := r.Update
		if prev, ok := last[u.slot]; ok && i-prev <= slotQuiet {
			t.Fatalf("update %d edits slot %d again after %d updates", i, u.slot, i-prev)
		}
		last[u.slot] = i
		_, live := state[u.slot]
		if (u.Op == "insert") == live {
			t.Fatalf("update %d: %s on slot %d, live=%v", i, u.Op, u.slot, live)
		}
		state.apply(u)
		if len(state) > liveMax+1 {
			t.Fatalf("update %d: %d live fragments, document is not stationary", i, len(state))
		}
		if u.Op != "delete" {
			frag, err := store.ParseFragment(u.Fragment)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(frag.Nodes); n < 1 || n > 50 {
				t.Fatalf("fragment of %d nodes, want 1 to 50", n)
			}
		}
	}
}

func TestMixedStreamOffersTheSameLoadForEverySeed(t *testing.T) {
	count := func(seed int64) (n, updates int) {
		upd := newUpdateGen(seed, "t", 0.25)
		for _, r := range mixedStream(seed, upd, mixedRate, 15*time.Second, updateShare) {
			n++
			if r.Kind == KindUpdate {
				updates++
			}
		}
		return
	}
	n1, u1 := count(1)
	n2, u2 := count(2)
	if n1 != n2 || u1 != u2 {
		t.Errorf("seed 1 offers %d requests (%d updates), seed 2 %d (%d)", n1, u1, n2, u2)
	}
	if share := float64(u1) / float64(n1); math.Abs(share-updateShare) > 0.002 {
		t.Errorf("update share %.4f, want %.2f", share, updateShare)
	}
	stream := mixedStream(1, newUpdateGen(1, "t", 0.25), mixedRate, 15*time.Second, updateShare)
	for i := 1; i < len(stream); i++ {
		if stream[i].Due < stream[i-1].Due {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(sorted, 50) != 5 || percentile(sorted, 90) != 9 || percentile(sorted, 100) != 10 {
		t.Error("nearest-rank percentile")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles %v %v, want 1 4.5", q1, q3)
	}
}

// TestOpenLoopCountsFromDueTime stalls the first request of a steady
// schedule. Service time alone would show one slow request; counted from
// their due times, the requests queued behind the stall are slow too.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	reqs := make([]prepared, 20)
	for i := range reqs {
		reqs[i].Due = time.Duration(i) * 5 * time.Millisecond
	}
	first := true
	var service []time.Duration
	samples := openLoop(reqs, 1, func(*prepared) bool {
		t0 := time.Now()
		if first {
			first = false
			time.Sleep(stall)
		}
		service = append(service, time.Since(t0))
		return true
	})
	slowService, slowFromDue := 0, 0
	for i, s := range samples {
		if service[i] > stall/2 {
			slowService++
		}
		if s.lat > stall/2 {
			slowFromDue++
		}
		if s.lat < s.late {
			t.Errorf("request %d: latency %v below its send delay %v", i, s.lat, s.late)
		}
	}
	if slowService != 1 {
		t.Fatalf("%d requests were slow to serve, want 1", slowService)
	}
	if slowFromDue < 10 {
		t.Errorf("only %d requests are slow from their due time: coordinated omission", slowFromDue)
	}
	if samples[1].late < stall/2 {
		t.Errorf("the request behind the stall was sent %v late, want about %v", samples[1].late, stall)
	}
}

func TestBacklogGrowingAndRateOK(t *testing.T) {
	step := 6 * time.Second
	var flat, climbing []time.Duration
	for i := 0; i < 300; i++ {
		flat = append(flat, time.Duration(i%7)*time.Millisecond)
		climbing = append(climbing, time.Duration(i)*5*time.Millisecond) // 1.5 s behind by the end
	}
	if backlogGrowing(flat, step) {
		t.Error("jitter around a level is not a growing backlog")
	}
	if !backlogGrowing(climbing, step) {
		t.Error("lateness that climbs all step long is a growing backlog")
	}
	burst := append(append([]time.Duration(nil), flat...), flat...)
	burst[10] = 2 * time.Second // one stall early on, then recovered
	if backlogGrowing(burst, step) {
		t.Error("a stall the generator recovers from is not a growing backlog")
	}

	within := rateResult{readP95MS: 40}
	if !within.ok(50) {
		t.Error("p95 40 ms meets a 50 ms limit")
	}
	for name, r := range map[string]rateResult{
		"p95 over the limit": {readP95MS: 80},
		"a failed operation": {readP95MS: 40, failed: 1},
		"a growing backlog":  {readP95MS: 40, growing: true},
	} {
		if r.ok(50) {
			t.Errorf("%s must not count as a sustained rate", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "handler", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Name: "nested", StartNS: 100, EndNS: 400},
		{ID: 3, Parent: 1, Name: "reexec", StartNS: 2000, EndNS: 2250, Reexec: true}, // outside the parent's interval
		{ID: 4, Parent: 2, Name: "leaf", StartNS: 150, EndNS: 250},
		{ID: 5, Parent: 3, Name: "slow", StartNS: 3000, EndNS: 3900, Reexec: true}, // longer than its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 1000 - 300 - 250, 2: 300 - 100, 3: 0, 4: 100, 5: 900}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	if by := selfByName(spans); by["handler"] != 450 {
		t.Errorf("selfByName: %v", by)
	}

	tr := newTracer()
	outer, _ := tr.call("outer", 0, false, func() {
		tr.call("inner", tr.current(), false, func() {})
	})
	if tr.spans[1].Parent != outer || tr.cur != 0 {
		t.Errorf("spans recorded inside a call must name it as parent: %+v", tr.spans)
	}
	var off *tracer
	if id, _ := off.call("x", 0, false, func() {}); id != 0 {
		t.Error("a nil tracer records nothing")
	}
}

func TestCheckShares(t *testing.T) {
	if got := checkShares("read_hot", layerShares{compile: 0.01, eval: 0.95}); len(got) != 0 {
		t.Errorf("read_hot within expectations reported %v", got)
	}
	if got := checkShares("read_hot", layerShares{compile: 0.08, eval: 0.70}); len(got) != 2 {
		t.Errorf("read_hot: %v, want two misses", got)
	}
	if got := checkShares("read_coldplan", layerShares{compile: 0.30}); len(got) != 1 {
		t.Errorf("read_coldplan: %v, want one miss", got)
	}
	if got := checkShares("write_only", layerShares{write: 0.95}); len(got) != 0 {
		t.Errorf("write_only: %v", got)
	}
	if got := checkShares("mixed_95_5", layerShares{}); got != nil {
		t.Errorf("mixed_95_5 has no expectation, got %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		def    metricDef
		change []float64
		want   verdict
	}{
		{"slower beyond the bound", lower, []float64{115, 116, 114, 115, 117}, regressed},
		{"slower within the bound", lower, []float64{104, 105, 103, 104, 106}, unchanged},
		{"faster by more than the spread", lower, []float64{90, 91, 89, 90, 92}, improved},
		{"higher is better", metricDef{Better: "higher", Bound: 0.10}, []float64{85, 86, 84, 85, 87}, regressed},
	} {
		if got, _, _ := judge(c.def, base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{100, 130, 80, 120, 90}
	if got, _, _ := judge(lower, noisy, []float64{103, 104, 102, 103, 105}); got != unresolved {
		t.Errorf("a base whose spread exceeds the bound: %s, want unresolved", got)
	}
	if suggestedBound(0.01) != 0.05 || suggestedBound(0.04) != 0.12 || suggestedBound(0.2) != 0.25 {
		t.Error("suggestedBound")
	}
}

func sectionAnswers(t *testing.T, db *tlc.Database) []answer {
	t.Helper()
	o := &oracle{db: db}
	var out []answer
	for _, q := range sectionQueries {
		a, err := o.run(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestNetReplayEqualsFullReplay checks the shortcut the oracle takes:
// it applies only the net effect of the acknowledged updates, which must
// produce the document that applying every update produces.
func TestNetReplayEqualsFullReplay(t *testing.T) {
	const factor = 0.02
	xml := genDocument(factor)
	script := updateScript(9, "test", factor, 400)

	full := tlc.Open(tlc.WithShards(1))
	if err := full.LoadXML(docName, bytes.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	state := slotState{}
	for i, r := range script {
		if _, err := full.Update(mutateRequest(r.Update)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		state.apply(r.Update)
	}

	orc, err := newOracle(xml)
	if err != nil {
		t.Fatal(err)
	}
	net, err := orc.documentAnswers(state, factor)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range sectionAnswers(t, full) {
		if net[i] != want {
			t.Errorf("section %d: net replay differs from the replay of all %d updates", i, len(script))
		}
	}
	if len(state) == 0 {
		t.Error("script left no fragment: the check is vacuous")
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the driver's tables
// from drifting apart.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef                           `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, driver default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, driver has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %+v, driver has %+v", i, w, specs[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, driver has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %+v, driver has %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s missing")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, driver has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better {
			t.Errorf("per-layer metric %d: %+v, driver has %+v", i, m, perLayer[i])
		}
	}
}
