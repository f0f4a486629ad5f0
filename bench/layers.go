package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tlc"
	"tlc/internal/algebra"
	"tlc/internal/mutate"
	"tlc/internal/pattern"
	"tlc/internal/physical"
	"tlc/internal/plancache"
	"tlc/internal/planner"
	"tlc/internal/rewrite"
	"tlc/internal/seq"
	"tlc/internal/service"
	"tlc/internal/store"
	"tlc/internal/translate"
	"tlc/internal/wal"
	"tlc/internal/xmark"
	"tlc/internal/xmltree"
	"tlc/internal/xquery"
)

// perLayer lists the per-layer metrics in the order they are printed;
// BENCHMARK.json repeats the names and a unit test keeps the two in step.
// Times are means per call of the named function; ratios and counts are
// per the unit given. A layer that is not on a workload's path reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"xquery.parse_us", "us", "lower"},
	{"translate.translate_us", "us", "lower"},
	{"rewrite.optimize_us", "us", "lower"},
	{"rewrite.rules_applied", "count", "higher"},
	{"planner.plan_us", "us", "lower"},
	{"plancache.load_hit_us", "us", "lower"},
	{"plancache.load_miss_us", "us", "lower"},
	{"plancache.hit_ratio", "ratio", "higher"},
	{"plancache.containment_ratio", "ratio", "higher"},
	{"plancache.evictions", "count", "lower"},
	{"physical.match_us", "us", "lower"},
	{"physical.extend_us", "us", "lower"},
	{"physical.structjoin_us", "us", "lower"},
	{"physical.valuejoin_us", "us", "lower"},
	{"physical.match_allocs", "count", "lower"},
	{"algebra.run_us", "us", "lower"},
	{"algebra.self_us", "us", "lower"},
	{"algebra.allocs_per_query", "count", "lower"},
	{"algebra.bytes_per_query", "B", "lower"},
	{"seq.serialize_us", "us", "lower"},
	{"seq.materialized_nodes_per_query", "count", "lower"},
	{"seq.arena_nodes_per_query", "count", "lower"},
	{"store.tag_lookups_per_query", "count", "lower"},
	{"store.tag_refs_per_result", "count", "lower"},
	{"store.nodes_read_per_result", "count", "lower"},
	{"service.self_us", "us", "lower"},
	{"service.update_retries", "count", "lower"},
	{"mutate.apply_us", "us", "lower"},
	{"mutate.encode_us", "us", "lower"},
	{"store.splice_us", "us", "lower"},
	{"store.commit_us", "us", "lower"},
	{"store.stats_deltas_per_update", "count", "lower"},
	{"mutate.conflicts", "count", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"wal.syncs_per_update", "ratio", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.rotate_us", "us", "lower"},
	{"wal.replay_us_per_record", "us", "lower"},
	{"store.snapshot_write_s", "s", "lower"},
	{"store.snapshot_open_ms", "ms", "lower"},
	{"store.snapshot_bytes", "B", "lower"},
	{"store.load_s", "s", "lower"},
	{"xmltree.parse_s", "s", "lower"},
	{"store.versions_live_max", "count", "lower"},
	{"baselines.gtp_over_tlc", "ratio", "higher"},
	{"baselines.tax_over_tlc", "ratio", "higher"},
	{"baselines.nav_over_tlc", "ratio", "higher"},
	{"driver.trace_overhead_ratio", "ratio", "lower"},
	{"driver.compile_share", "ratio", "lower"},
	{"driver.eval_share", "ratio", "lower"},
	{"driver.write_share", "ratio", "lower"},
}

// tracedRequests is how many requests of each workload's timed stream the
// traced run replays (after the untraced warm-up). Fixed counts, so the
// exact-count metrics repeat for a seed.
var tracedRequests = map[string]int{
	"read_hot": 310, "read_coldplan": 1024, "mixed_95_5": 600, "write_only": 300,
}

const (
	decomposePerTemplate = 3   // requests per template whose selects are re-run one by one
	baselineFactor       = 0.1 // document of the engine-ratio guard
)

// handPlan is a query compiled by calling the layers one by one.
type handPlan struct {
	plan    algebra.Op
	version uint64
}

// tracedState is the in-process rig of a traced run: a database behind
// the real HTTP handler, and a bare store of the same document on which
// the driver calls the layers one at a time.
type tracedState struct {
	tr  *tracer // nil during the untraced replay
	ctx context.Context

	db      *tlc.Database
	handler http.Handler
	cache   *plancache.Cache // the driver's own, fed with the same requests as the server's

	st    *store.Store
	lg    *wal.Log
	plans map[string]handPlan

	decomposed map[string]int
	acc        map[string]*accum
	// Time per layer group and in the handler, for the shares.
	handlerNS, compileNS, evalNS, writeNS time.Duration
	mismatches                            []string
	liveMax                               int64
	// The open stage of the mutate.Apply in progress (see update).
	stage      int
	stageStart time.Time
}

type accum struct {
	sum float64
	n   int
}

func (s *tracedState) add(name string, v float64) {
	if s.tr == nil {
		return
	}
	a := s.acc[name]
	if a == nil {
		a = &accum{}
		s.acc[name] = a
	}
	a.sum += v
	a.n++
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs fn as a span and accumulates its duration under metric.
func (s *tracedState) timed(span, metric string, parent int, reexec bool, fn func()) (int, time.Duration) {
	id, d := s.tr.call(span, parent, reexec, fn)
	if metric != "" {
		s.add(metric, us(d))
	}
	return id, d
}

func mallocs() (uint64, uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// serve sends one request through the real handler on a recorder.
func (s *tracedState) serve(path string, body []byte) (status int, response []byte, span int, d time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	span, d = s.tr.call("service.handler", 0, false, func() { s.handler.ServeHTTP(rec, req) })
	s.handlerNS += d
	return rec.Code, rec.Body.Bytes(), span, d
}

// compile builds the plan of text by calling parse, translate and plan
// one by one on the bare store; record says whether the request being
// replayed paid for a compile (a plan-cache miss), so the spans belong
// to it.
func (s *tracedState) compile(text string, parent int, record bool) (algebra.Op, error) {
	tr := s.tr
	if !record {
		s.tr = nil
	}
	defer func() { s.tr = tr }()
	var ast *xquery.FLWOR
	var res *translate.Result
	var plan algebra.Op
	var err error
	s.timed("xquery.parse", "xquery.parse_us", parent, true, func() { ast, err = xquery.Parse(text) })
	if err != nil {
		return nil, err
	}
	s.timed("translate.translate", "translate.translate_us", parent, true, func() { res, err = translate.TranslateOpts(ast, translate.Options{}) })
	if err != nil {
		return nil, err
	}
	s.timed("planner.plan", "planner.plan_us", parent, true, func() { plan, _ = planner.Plan(res.Plan, s.st, planner.Options{}) })
	return plan, nil
}

// query replays one query: through the handler, then layer by layer.
func (s *tracedState) query(r Request) error {
	status, body, root, hd := s.serve("/query", encodeQuery(r.Query))
	if status != http.StatusOK {
		return fmt.Errorf("%s: handler answered %d: %s", r.Tmpl, status, body)
	}
	var served struct {
		Results []string `json:"results"`
	}
	if err := json.Unmarshal(body, &served); err != nil {
		return err
	}

	// Plan cache, as the handler keys it.
	var prep *tlc.Prepared
	var hit bool
	var err error
	loadID, ld := s.timed("plancache.load", "", root, true, func() {
		prep, hit, err = s.cache.Load(s.ctx, s.db, plancache.Key{Query: r.Query, Engine: tlc.TLC, Parallelism: 1})
	})
	if err != nil {
		return err
	}
	if hit {
		s.add("plancache.load_hit_us", us(ld))
	} else {
		s.add("plancache.load_miss_us", us(ld))
	}
	version, _ := s.st.DocVersion(docName)
	hp, ok := s.plans[r.Query]
	if !ok || hp.version != version || !hit {
		plan, err := s.compile(r.Query, loadID, !hit)
		if err != nil {
			return err
		}
		hp = handPlan{plan, version}
		s.plans[r.Query] = hp
	}

	// Evaluation, exactly the handler's call.
	before := s.db.Stats()
	arenaBefore, _, _ := seq.ArenaTotals()
	m0, b0 := mallocs()
	var res *tlc.Result
	runID, rd := s.timed("algebra.run", "algebra.run_us", root, true, func() { res, err = s.db.RunContext(s.ctx, prep) })
	if err != nil {
		return err
	}
	m1, b1 := mallocs()
	after := s.db.Stats()
	arenaAfter, _, _ := seq.ArenaTotals()
	s.add("algebra.allocs_per_query", float64(m1-m0))
	s.add("algebra.bytes_per_query", float64(b1-b0))
	s.add("seq.materialized_nodes_per_query", float64(after.NodesMaterialized-before.NodesMaterialized))
	s.add("seq.arena_nodes_per_query", float64(arenaAfter-arenaBefore))
	s.add("store.tag_lookups_per_query", float64(after.TagLookups-before.TagLookups))
	if n := res.Len(); n > 0 {
		s.add("store.tag_refs_per_result", float64(after.TagRefs-before.TagRefs)/float64(n))
		s.add("store.nodes_read_per_result", float64(after.NodesRead-before.NodesRead)/float64(n))
	}

	// Pattern matching, select by select, for a few requests per template.
	if s.tr != nil && s.decomposed[r.Tmpl] < decomposePerTemplate {
		s.decomposed[r.Tmpl]++
		inner, err := s.matchSelects(hp.plan, runID)
		if err != nil {
			return err
		}
		s.add("algebra.self_us", us(max(rd-inner, 0)))
	}

	var trees []string
	_, sd := s.timed("seq.serialize", "seq.serialize_us", root, true, func() {
		trees = make([]string, res.Len())
		for i := range trees {
			trees[i] = res.TreeXML(i)
		}
	})
	s.add("service.self_us", us(max(hd-ld-rd-sd, 0)))
	s.compileNS += ld // a miss's load contains parse, translate and plan
	s.evalNS += rd + sd
	if hashResults(trees) != hashResults(served.Results) {
		s.mismatches = append(s.mismatches, r.Tmpl+": handler and layer-by-layer answers differ")
	}
	return nil
}

// matchSelects re-runs every pattern match of plan from outside and
// returns their total time: document-rooted selects as MatchDocument,
// extension selects as MatchExtend over their input's (untimed) result.
func (s *tracedState) matchSelects(plan algebra.Op, parent int) (time.Duration, error) {
	pin := s.st.Pin()
	var total time.Duration
	for _, op := range algebra.Ops(plan) {
		sel, ok := op.(*algebra.Select)
		if !ok || sel.APT == nil || sel.APT.Root == nil {
			continue
		}
		m := physical.NewMatcher(pin).WithArena(seq.NewArena())
		var err error
		var d time.Duration
		if sel.APT.Root.Kind == pattern.TestLC {
			input, ierr := algebra.Eval(algebra.NewContext(pin), sel.Inputs()[0])
			if ierr != nil {
				return 0, ierr
			}
			_, d = s.timed("physical.extend", "physical.extend_us", parent, true, func() { _, err = m.MatchExtend(s.ctx, input, sel.APT) })
		} else {
			m0, _ := mallocs()
			_, d = s.timed("physical.match", "physical.match_us", parent, true, func() { _, err = m.MatchDocument(s.ctx, sel.APT) })
			m1, _ := mallocs()
			s.add("physical.match_allocs", float64(m1-m0))
		}
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func mutateRequest(u Update) mutate.Request {
	kind, _ := mutate.ParseKind(u.Op)
	return mutate.Request{Doc: docName, Op: kind, Target: u.Target, Position: u.Position, Fragment: u.Fragment}
}

// update replays one update: through the handler, then as one
// mutate.Apply on the bare store. The layers expose no hook between
// Apply's steps except the commit log, which CommitLogged calls after
// BuildSplice returned and before the new version is published — so that
// call splits Apply's interval in two nested spans: store.splice (fragment
// parse, target resolution and Store.BuildSplice) up to it, store.commit
// (log append, fsync, directory swap) from it.
func (s *tracedState) update(r Request) error {
	status, body, root, _ := s.serve("/update", encodeUpdate(r.Update))
	if status != http.StatusOK {
		return fmt.Errorf("update %s: handler answered %d: %s", r.Update.Target, status, body)
	}
	if v := s.db.VersionsLive(); v > s.liveMax {
		s.liveMax = v
	}
	req := mutateRequest(r.Update)
	var err error
	s.timed("mutate.encode", "mutate.encode_us", root, true, func() { _, err = mutate.EncodeRequest(req) })
	if err != nil {
		return err
	}
	var res mutate.Result
	_, ad := s.timed("mutate.apply", "mutate.apply_us", root, true, func() {
		s.stage, s.stageStart = s.tr.open("store.splice", s.tr.current(), false), time.Now()
		res, err = mutate.Apply(s.ctx, s.st, req)
		s.tr.close(s.stage)
		s.add("store.commit_us", us(time.Since(s.stageStart)))
	})
	if err != nil {
		return err
	}
	s.writeNS += ad
	s.add("store.stats_deltas_per_update", float64(res.StatsDeltas))
	s.add("mutate.conflicts", float64(res.Conflicts))
	return nil
}

// commitHook is the bare store's write-ahead step: append, then fsync —
// what -fsync always does inside one call, split so each is a span. It
// also ends the store.splice span update opened and opens store.commit.
func (s *tracedState) commitHook(seq uint64, payload []byte) error {
	now := time.Now()
	s.add("store.splice_us", us(now.Sub(s.stageStart)))
	s.tr.close(s.stage)
	s.stage, s.stageStart = s.tr.open("store.commit", s.tr.current(), false), now
	var err error
	s.timed("wal.append", "wal.append_us", s.stage, false, func() { err = s.lg.Append(seq, payload) })
	if err != nil {
		return err
	}
	s.timed("wal.sync", "wal.sync_us", s.stage, false, func() { err = s.lg.Sync() })
	return err
}

func (s *tracedState) replay(reqs []Request) error {
	for _, r := range reqs {
		if s.tr != nil {
			s.tr.request++
		}
		var err error
		if r.Kind == KindQuery {
			err = s.query(r)
		} else {
			err = s.update(r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// handlerOnly replays reqs through the handler with no tracer and no
// layer-by-layer work: the untraced side of the overhead ratio.
func handlerOnly(h http.Handler, reqs []Request) (time.Duration, error) {
	var total time.Duration
	for _, r := range reqs {
		path, body := "/query", encodeQuery(r.Query)
		if r.Kind == KindUpdate {
			path, body = "/update", encodeUpdate(r.Update)
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		total += time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("untraced replay: %s answered %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	return total, nil
}

// newRig loads xml into a database behind the service handler, with a
// WAL under dir.
func newRig(xml []byte, dir string) (*tlc.Database, http.Handler, error) {
	db := tlc.Open(tlc.WithShards(2))
	if err := db.LoadXML(docName, bytes.NewReader(xml)); err != nil {
		return nil, nil, err
	}
	if _, err := db.AttachWAL(tlc.WALOptions{Dir: dir, Fsync: "always"}); err != nil {
		return nil, nil, err
	}
	srv, err := service.New(service.Config{DB: db, MaxConcurrent: 2, CacheSize: 128, Parallelism: 1})
	if err != nil {
		return nil, nil, err
	}
	return db, srv.Handler(), nil
}

// tracedRun replays the head of a workload's stream in one goroutine
// against an in-process database, timing the calls into each layer from
// outside, and reports the per-layer metrics.
func tracedRun(cfg config, sp spec) (result, error) {
	began := time.Now()
	if cfg.smoke {
		sp.factor = smokeFactor
	}
	work := filepath.Join(cfg.work, "trace")
	if err := os.RemoveAll(work); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	warm, stream := workloadStreams(cfg, sp)
	n := tracedRequests[sp.name]
	if cfg.smoke {
		n /= 4
	}
	main := make([]Request, n)
	for i := range main {
		main[i] = stream[i%len(stream)] // read_coldplan goes round its templates twice
	}
	xml := genDocument(sp.factor)
	vals := map[string]float64{}

	// Load path: parse and index, each timed once.
	var doc *xmltree.Document
	var err error
	t0 := time.Now()
	if doc, err = xmltree.Parse(docName, bytes.NewReader(xml)); err != nil {
		return result{}, err
	}
	vals["xmltree.parse_s"] = time.Since(t0).Seconds()
	st := store.NewSharded(2)
	t0 = time.Now()
	if _, err = st.Load(doc); err != nil {
		return result{}, err
	}
	vals["store.load_s"] = time.Since(t0).Seconds()

	// Untraced replay first, on its own rig: the handler alone.
	_, plainHandler, err := newRig(xml, filepath.Join(work, "wal-plain"))
	if err != nil {
		return result{}, err
	}
	if _, err := handlerOnly(plainHandler, warm); err != nil {
		return result{}, err
	}
	plainTotal, err := handlerOnly(plainHandler, main)
	if err != nil {
		return result{}, err
	}

	// Traced replay.
	db, handler, err := newRig(xml, filepath.Join(work, "wal-handler"))
	if err != nil {
		return result{}, err
	}
	defer db.Close()
	lg, err := wal.Open(filepath.Join(work, "wal-layers"), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		return result{}, err
	}
	defer lg.Close()
	s := &tracedState{
		ctx: context.Background(), db: db, handler: handler, cache: plancache.New(128),
		st: st, lg: lg, plans: map[string]handPlan{}, decomposed: map[string]int{}, acc: map[string]*accum{},
		liveMax: db.VersionsLive(),
	}
	st.SetCommitLog(s.commitHook)
	if err := s.replay(warm); err != nil {
		return result{}, err
	}
	beforeVarz, err := handlerVarz(handler)
	if err != nil {
		return result{}, err
	}
	s.tr = newTracer()
	if err := s.replay(main); err != nil {
		return result{}, err
	}
	tr := s.tr
	s.tr = nil

	mean := func(name string) float64 {
		if a := s.acc[name]; a != nil && a.n > 0 {
			return a.sum / float64(a.n)
		}
		return 0
	}
	for _, m := range perLayer {
		if _, fixed := vals[m.name]; !fixed {
			vals[m.name] = mean(m.name)
		}
	}
	vals["mutate.conflicts"] = 0
	if a := s.acc["mutate.conflicts"]; a != nil {
		vals["mutate.conflicts"] = a.sum
	}
	vals["store.versions_live_max"] = float64(s.liveMax)
	vals["driver.trace_overhead_ratio"] = float64(s.handlerNS) / float64(plainTotal)

	// Plan-cache behaviour of the handler's own cache over the traced part.
	vz, err := handlerVarz(handler)
	if err != nil {
		return result{}, err
	}
	pc, pb := vz.PlanCache, beforeVarz.PlanCache
	if lookups := float64(pc.Hits + pc.Misses - pb.Hits - pb.Misses); lookups > 0 {
		vals["plancache.hit_ratio"] = float64(pc.Hits-pb.Hits) / lookups
		vals["plancache.containment_ratio"] = float64(pc.HitsContainment-pb.HitsContainment) / lookups
	}
	vals["plancache.evictions"] = float64(pc.Evictions - pb.Evictions)
	vals["service.update_retries"] = float64(vz.UpdateRetries)

	// WAL counters of the layer-by-layer log, then rotation and replay.
	ws := lg.Stats()
	if ws.Appended > 0 {
		vals["wal.syncs_per_update"] = float64(ws.Synced) / float64(ws.Appended)
		vals["wal.bytes_per_record"] = float64(ws.Bytes) / float64(ws.Appended)
	}
	t0 = time.Now()
	if err := lg.RotateTo(lg.LastSeq()); err != nil {
		return result{}, err
	}
	vals["wal.rotate_us"] = us(time.Since(t0))
	t0 = time.Now()
	replayed, _, err := lg.Replay(0, func(rec wal.Record) error {
		_, err := mutate.DecodeRequest(rec.Payload)
		return err
	})
	if err != nil {
		return result{}, err
	}
	if replayed > 0 {
		vals["wal.replay_us_per_record"] = us(time.Since(t0)) / float64(replayed)
	}

	// Shares of handler time. An update's layer time is mutate.Apply when
	// it was applied whole, encode + splice + commit when step by step.
	shares := layerShares{
		compile: float64(s.compileNS) / float64(s.handlerNS),
		eval:    float64(s.evalNS) / float64(s.handlerNS),
		write:   float64(s.writeNS) / float64(s.handlerNS),
	}
	vals["driver.compile_share"], vals["driver.eval_share"], vals["driver.write_share"] = shares.compile, shares.eval, shares.write

	snapDir := filepath.Join(work, "snapshot")
	if err := fixedProbes(cfg, st, snapDir, vals); err != nil {
		return result{}, err
	}
	// Both replays applied the same updates: the bare store, reopened from
	// the snapshot just written, must hold the handler's document.
	bare, err := tlc.OpenSnapshot(snapDir)
	if err != nil {
		return result{}, err
	}
	defer bare.Close()
	for i, q := range sectionQueries {
		served, err := (&oracle{db: db}).run(q)
		if err != nil {
			return result{}, err
		}
		byLayers, err := (&oracle{db: bare}).run(q)
		if err != nil {
			return result{}, err
		}
		if served != byLayers {
			s.mismatches = append(s.mismatches, fmt.Sprintf("document section %d: the bare store differs from the handler's database", i))
		}
	}

	out := filepath.Join(cfg.out, "trace-"+sp.name+".json")
	if err := tr.write(out); err != nil {
		return result{}, err
	}

	fmt.Printf("== %s: traced run, %d requests, %d spans -> %s ==\n", sp.name, len(main), len(tr.spans), out)
	res := result{Correct: len(s.mismatches) == 0, Attempted: len(main), Failed: len(s.mismatches), Metrics: map[string]Metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
		fmt.Printf("  %-36s %16.4f %s\n", m.name, vals[m.name], m.unit)
	}
	sums, self := sumByName(tr.spans), selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("  span totals (self = span − children):")
	for _, n := range names {
		fmt.Printf("  · %-24s total %10.2f ms  self %10.2f ms\n", n, ms(sums[n]), ms(self[n]))
	}
	if !cfg.smoke { // the expectations are for the frozen document sizes
		for _, line := range checkShares(sp.name, shares) {
			fmt.Println("  ! share expectation missed — " + line)
		}
	}
	for _, m := range s.mismatches {
		fmt.Println("  ! " + m)
	}
	fmt.Printf("  · traced run took %.2f s\n", time.Since(began).Seconds())
	return res, nil
}

func handlerVarz(h http.Handler) (varz, error) {
	var v varz
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/varz", nil))
	if rec.Code != http.StatusOK {
		return v, fmt.Errorf("/varz answered %d", rec.Code)
	}
	return v, json.Unmarshal(rec.Body.Bytes(), &v)
}

// fixedProbes measures the layers no request stream reaches: snapshot
// write and open, the Section 4 rewrites, the two join kernels on
// index-scan inputs, and the engine ratios that guard the paper's shape.
func fixedProbes(cfg config, st *store.Store, snapDir string, vals map[string]float64) error {
	ctx := context.Background()
	t0 := time.Now()
	info, err := st.WriteSnapshot(snapDir)
	if err != nil {
		return err
	}
	vals["store.snapshot_write_s"] = time.Since(t0).Seconds()
	vals["store.snapshot_bytes"] = float64(info.Bytes)
	t0 = time.Now()
	opened, err := store.OpenSnapshot(snapDir)
	if err != nil {
		return err
	}
	vals["store.snapshot_open_ms"] = ms(time.Since(t0))
	opened.Close()

	// Section 4 rewrites on the Figure 16 set.
	var optimize time.Duration
	rules, rewritable := 0, 0
	for _, q := range xmark.Queries() {
		if !q.Rewritable {
			continue
		}
		ast, err := xquery.Parse(q.Text)
		if err != nil {
			return err
		}
		res, err := translate.TranslateOpts(ast, translate.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, n := rewrite.Optimize(res.Plan)
		optimize += time.Since(t0)
		rules += n
		rewritable++
	}
	vals["rewrite.optimize_us"] = us(optimize) / float64(rewritable)
	vals["rewrite.rules_applied"] = float64(rules)

	// Join kernels: inputs are plain index scans, only the join is timed.
	pin := st.Pin()
	scan := func(build func(root *pattern.Node)) (seq.Seq, error) {
		root := pattern.NewDocRoot(0, docName)
		build(root)
		return physical.NewMatcher(pin).MatchDocument(ctx, &pattern.Tree{Root: root})
	}
	var structJoin, valueJoin []float64
	for i := 0; i < 5; i++ {
		auctions, err := scan(func(r *pattern.Node) { r.Add(pattern.NewTagNode(1, "open_auction"), pattern.Descendant, pattern.One) })
		if err != nil {
			return err
		}
		found, err := scan(func(r *pattern.Node) { r.Add(pattern.NewTagNode(2, "bidder"), pattern.Descendant, pattern.One) })
		if err != nil {
			return err
		}
		var bidders seq.Seq
		for _, w := range found {
			b, err := w.Singleton(2)
			if err != nil {
				return err
			}
			t := seq.NewTree(seq.NewStoreNode(b.Doc, b.Ord, pin.Doc(b.Doc)))
			t.AddToClass(2, t.Root)
			bidders = append(bidders, t)
		}
		t0 := time.Now()
		if _, err := physical.StructuralJoin(ctx, pin, auctions, bidders, 1, pattern.Child, pattern.ZeroOrMore); err != nil {
			return err
		}
		structJoin = append(structJoin, us(time.Since(t0)))

		persons, err := scan(func(r *pattern.Node) {
			r.Add(pattern.NewTagNode(1, "person"), pattern.Descendant, pattern.One).Add(pattern.NewTagNode(2, "@id"), pattern.Child, pattern.One)
		})
		if err != nil {
			return err
		}
		buyers, err := scan(func(r *pattern.Node) {
			r.Add(pattern.NewTagNode(3, "closed_auction"), pattern.Descendant, pattern.One).
				Add(pattern.NewTagNode(0, "buyer"), pattern.Child, pattern.One).
				Add(pattern.NewTagNode(4, "@person"), pattern.Child, pattern.One)
		})
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := physical.ValueJoin(ctx, pin, persons, buyers, physical.JoinSpec{
			LeftLCL: 2, RightLCL: 4, Op: pattern.EQ, RightSpec: pattern.One, RootLCL: 9,
		}); err != nil {
			return err
		}
		valueJoin = append(valueJoin, us(time.Since(t0)))
	}
	vals["physical.structjoin_us"] = median(structJoin)
	vals["physical.valuejoin_us"] = median(valueJoin)

	// Engine ratios on the Figure 17 set: TLC must stay the fastest.
	factor := baselineFactor
	if cfg.smoke {
		factor = 0.02
	}
	bdb := tlc.Open(tlc.WithShards(1))
	if err := bdb.LoadXML(docName, bytes.NewReader(genDocument(factor))); err != nil {
		return err
	}
	total := map[tlc.Engine]time.Duration{}
	for _, id := range []string{"x3", "x5", "x13", "Q1", "Q2"} {
		q, _ := xmark.QueryByID(id)
		for _, e := range tlc.Engines() {
			prep, err := bdb.Compile(q.Text, tlc.WithEngine(e), tlc.WithParallelism(1))
			if err != nil {
				return err
			}
			best := time.Duration(1 << 62)
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				if _, err := bdb.Run(prep); err != nil {
					return err
				}
				best = min(best, time.Since(t0))
			}
			total[e] += best
		}
	}
	vals["baselines.gtp_over_tlc"] = float64(total[tlc.GTP]) / float64(total[tlc.TLC])
	vals["baselines.tax_over_tlc"] = float64(total[tlc.TAX]) / float64(total[tlc.TLC])
	vals["baselines.nav_over_tlc"] = float64(total[tlc.Nav]) / float64(total[tlc.TLC])
	return nil
}
