package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Frozen sizes, calibrated on the seed commit (see README.md). A later
// change must not touch them: they are what makes two commits comparable.
const (
	// mainFactor sizes the document of read_hot, mixed_95_5 and
	// write_only: small enough for 200 updates in mixed_95_5's 20 s.
	// coldFactor sizes read_coldplan's, which must be smaller still for
	// compilation to be a visible share of a request.
	mainFactor = 0.1
	coldFactor = 0.02
	// smokeFactor and smokeSeconds size -smoke.
	smokeFactor  = 0.05
	smokeSeconds = 2

	clients      = 2 // load-issuing goroutines and connections: nproc
	setupRepeats = 5 // set-ups per run; setup_s is their median
	warmUpdates  = 16
	// recoveryRepeats and recoveryBudget bound the kill-and-restart loop.
	recoveryRepeats = 5
	recoveryBudget  = 1500 * time.Millisecond
	// writeOpsPerSecond turns --seconds into write_only's fixed update
	// count: the seed commit sustains about this rate with one client, so
	// the script takes about --seconds there, and the counts (fsyncs,
	// bytes logged, records replayed) repeat exactly for a seed.
	writeOpsPerSecond = 400
	updateShare       = 0.05
	// readLimitMS is the open-loop latency limit: twice read_hot's p95 on
	// the seed commit.
	readLimitMS = 25.0
)

// mixedRate is the offered load of mixed_95_5 in requests per second: 39 %
// of what two closed-loop clients reach on the same document on the seed
// commit (read_hot, 515 requests/s; see README.md, Frozen sizes). An open
// loop amplifies a slow spell of the box by 1/(1-load): offered 80 % of
// capacity, a box running a fifth slower for a few seconds tipped into
// overload and p95 read 325 ms instead of 55.
const mixedRate = 200.0

type spec struct {
	name, why string
	factor    float64
	// probe sizes the short cross-probe of the other request kind that
	// follows the timed phase on the same server: updates after a read
	// workload, passes of the read_hot stream after write_only.
	probe int
}

var specs = []spec{
	{"read_hot", "23 Fig. 15 queries plus stronger-literal variants fit the plan cache: match, algebra and serialization do the work", mainFactor, 900},
	{"read_coldplan", "512 distinct cheap templates on a small document overflow the plan cache: parse, translate, plan and cache do the work", coldFactor, 1800},
	{"mixed_95_5", "open loop at a fixed rate, 95% hot reads and 5% subtree updates: pinned readers against splice, commit and plan invalidation", mainFactor, 0},
	{"write_only", "one client, fixed update script, two checkpoints, SIGKILL and restart: splice, WAL, fsync, snapshot and replay do the work", mainFactor, 40},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type config struct {
	seed     int64
	seconds  int
	smoke    bool
	tlcserve string // path of the tlcserve binary
	work     string // scratch directory inside the checkout
	out      string // where span files go
}

// prepared is a request ready to send, with its reference answer.
type prepared struct {
	Request
	body []byte
	want answer
}

type sample struct {
	kind Kind
	lat  time.Duration // closed loop: from send; open loop: from the due time
	late time.Duration // open loop: how long after its due time the request was sent
	ok   bool
}

// report is everything one end-to-end run measured.
type report struct {
	workload  string
	metrics   map[string]Metric
	counts    map[string]int // samples behind each latency metric
	diag      []string       // printed, not gated
	attempted int
	failed    int
	errs      []string
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) diagf(format string, args ...any) {
	r.diag = append(r.diag, fmt.Sprintf(format, args...))
}

// run holds one workload execution.
type run struct {
	cfg config
	sp  spec
	rep *report

	xml     []byte
	xmlPath string
	orc     *oracle
	state   slotState // fragments held by acknowledged updates
	userB   int64     // bytes of acknowledged update request bodies
	stateMu sync.Mutex

	srv    *server
	cl     *client
	walDir string
	snap   string
	peakKB int64
}

func (r *run) prepare(reqs []Request) ([]prepared, error) {
	if err := r.orc.learn(reqs); err != nil {
		return nil, err
	}
	out := make([]prepared, len(reqs))
	for i, q := range reqs {
		out[i].Request = q
		if q.Kind == KindQuery {
			out[i].body = encodeQuery(q.Query)
			out[i].want = r.orc.answers[q.Query]
		} else {
			out[i].body = encodeUpdate(q.Update)
		}
	}
	return out, nil
}

// do sends one request and checks the response.
func (r *run) do(p *prepared) bool {
	if p.Kind == KindQuery {
		got, err := r.cl.query(p.body)
		switch {
		case err != nil:
			r.noteFailure("%s: %v", p.Tmpl, err)
			return false
		case got != p.want:
			r.noteFailure("%s: wrong answer: got %d trees hash %x, oracle %d trees hash %x",
				p.Tmpl, got.Count, got.Hash, p.want.Count, p.want.Hash)
			return false
		}
		return true
	}
	if err := r.cl.update(p.body); err != nil {
		r.noteFailure("update %s %s: %v", p.Update.Op, p.Update.Target, err)
		return false
	}
	r.stateMu.Lock()
	r.state.apply(p.Update)
	r.userB += int64(len(p.body))
	r.stateMu.Unlock()
	return true
}

func (r *run) noteFailure(format string, args ...any) {
	r.stateMu.Lock()
	r.rep.fail(format, args...)
	r.stateMu.Unlock()
}

// closedLoop issues reqs from n goroutines, each sending its next
// request when the previous one completes. With a deadline the stream is
// cycled until the deadline passes; without one it is issued once.
func (r *run) closedLoop(reqs []prepared, n int, deadline time.Time) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := int(next.Add(1) - 1)
				if deadline.IsZero() && i >= len(reqs) {
					break
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				p := &reqs[i%len(reqs)]
				t0 := time.Now()
				ok := r.do(p)
				mine = append(mine, sample{kind: p.Kind, lat: time.Since(t0), ok: ok})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// openLoop issues reqs on their schedule from n goroutines. A request is
// never sent before its due time; when both goroutines are busy it is
// sent late, and its latency still counts from the due time — the wait a
// stall imposes on the requests behind it is part of what a user sees.
func openLoop(reqs []prepared, n int, do func(*prepared) bool) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				p := &reqs[i]
				due := start.Add(p.Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := do(p)
				done := time.Now()
				out[i] = sample{kind: p.Kind, lat: done.Sub(due), late: sent.Sub(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// ---- server lifecycle ----

func (r *run) spawn(load bool) error {
	args := rigArgs(r.walDir, r.snap)
	if load {
		args = append(args, "-load", docName+"="+r.xmlPath)
	}
	srv, err := startServer(r.cfg.tlcserve, filepath.Join(r.cfg.work, "tlcserve.log"), args...)
	if err != nil {
		return err
	}
	r.srv, r.cl = srv, newClient(srv.base)
	return r.cl.waitReady(60 * time.Second)
}

func (r *run) stop() {
	if r.srv == nil {
		return
	}
	r.cl.close()
	r.srv.kill()
	if r.srv.peakKB > r.peakKB {
		r.peakKB = r.srv.peakKB
	}
	r.srv, r.cl = nil, nil
}

// setUp starts a fresh server on empty WAL and snapshot directories and
// warms it up, setupRepeats times over; the last server stays up for the
// timed phase. It returns each repetition's spawn → ready → warm time.
func (r *run) setUp(warm []prepared) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		r.stop()
		r.peakKB = 0
		for _, d := range []string{r.walDir, r.snap} {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
		r.state, r.userB = slotState{}, 0
		t0 := time.Now()
		if err := r.spawn(true); err != nil {
			return nil, err
		}
		for j := range warm {
			r.rep.attempted++
			r.do(&warm[j])
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// ---- the workloads ----

// workloadStreams returns a workload's untimed warm-up and its timed
// stream. The end-to-end run issues the stream; the traced run replays its
// head.
func workloadStreams(cfg config, sp spec) (warm, main []Request) {
	hotWarm := distinctQueries(hotStream(cfg.seed, 4))
	switch sp.name {
	case "read_hot":
		return hotWarm, hotStream(cfg.seed, 40)
	case "read_coldplan":
		cold := coldStream(cfg.seed, sp.factor)
		return cold, cold
	case "mixed_95_5":
		upd := newUpdateGen(cfg.seed, "mixed_95_5/updates", sp.factor)
		warm = hotWarm
		for i := 0; i < warmUpdates; i++ {
			warm = append(warm, Request{Kind: KindUpdate, Tmpl: "upd", Update: upd.next()})
		}
		secs := time.Duration(cfg.seconds) * time.Second
		return warm, mixedStream(cfg.seed, upd, mixedRate, secs, updateShare)
	default: // write_only
		script := updateScript(cfg.seed, "write_only/updates", sp.factor, warmUpdates+cfg.seconds*writeOpsPerSecond)
		return script[:warmUpdates], script[warmUpdates:]
	}
}

func runWorkload(cfg config, sp spec) (*report, error) {
	if cfg.smoke {
		sp.factor = smokeFactor
		sp.probe /= 4
	}
	r := &run{
		cfg: cfg, sp: sp,
		rep:     &report{workload: sp.name, metrics: map[string]Metric{}, counts: map[string]int{}},
		xmlPath: filepath.Join(cfg.work, docName),
		walDir:  filepath.Join(cfg.work, "wal"),
		snap:    filepath.Join(cfg.work, "snapshot"),
	}
	defer r.stop()
	began := time.Now()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	r.xml = genDocument(sp.factor)
	if err := os.WriteFile(r.xmlPath, r.xml, 0o644); err != nil {
		return nil, err
	}
	var err error
	if r.orc, err = newOracle(r.xml); err != nil {
		return nil, err
	}
	secs := time.Duration(cfg.seconds) * time.Second

	// Streams. Every workload has a warm-up prefix (untimed, part of
	// set-up), a main stream and a cross-probe of the other request kind.
	warmR, mainR := workloadStreams(cfg, sp)
	var probeR []Request
	switch sp.name {
	case "read_hot", "read_coldplan":
		probeR = updateScript(cfg.seed, "probe/updates", sp.factor, sp.probe)
	case "write_only":
		probeR = hotStream(cfg.seed, sp.probe)
	}
	warm, err := r.prepare(warmR)
	if err != nil {
		return nil, err
	}
	main, err := r.prepare(mainR)
	if err != nil {
		return nil, err
	}
	probe, err := r.prepare(probeR)
	if err != nil {
		return nil, err
	}
	r.rep.diagf("stream hash %016x (%d requests), document %d bytes at factor %g",
		streamHash(mainR), len(mainR), len(r.xml), sp.factor)

	r.rep.diagf("inputs and oracle answers ready after %.2f s", time.Since(began).Seconds())
	setups, err := r.setUp(warm)
	if err != nil {
		return nil, err
	}
	r.metric("setup_s", median(setups), "s")
	r.rep.diagf("setup_s repetitions: %.4f", setups)

	// Timed phase.
	var reads, writes phase
	var afterReads varz // plan-cache counters once the reads are done, before any probe updates
	switch sp.name {
	case "read_hot", "read_coldplan":
		t0 := time.Now()
		samples := r.closedLoop(main, clients, t0.Add(secs))
		reads = r.collect(samples, KindQuery, time.Since(t0))
		if afterReads, err = r.cl.varz(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		writes = r.collect(r.closedLoop(probe, 1, time.Time{}), KindUpdate, time.Since(t0))
	case "mixed_95_5":
		t0 := time.Now()
		samples := openLoop(main, clients, r.do)
		// An open loop completes what it is offered unless it falls behind:
		// its throughput counts from the first due time to the last
		// completion.
		wall := time.Since(t0)
		reads = r.collect(samples, KindQuery, wall)
		writes = r.collect(samples, KindUpdate, wall)
		r.rateReport(samples, secs)
		if afterReads, err = r.cl.varz(); err != nil {
			return nil, err
		}
	case "write_only":
		// Checkpoints after one and two thirds of the script are issued
		// inline by the one client, so recovery replays exactly the last
		// third; update_per_s is updates ÷ the whole phase, checkpoints
		// included.
		t0 := time.Now()
		var samples []sample
		third := len(main) / 3
		for i, part := range [][]prepared{main[:third], main[third : 2*third], main[2*third:]} {
			samples = append(samples, r.closedLoop(part, 1, time.Time{})...)
			if i < 2 {
				c0 := time.Now()
				if err := r.cl.checkpoint(r.snap); err != nil {
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
				r.rep.diagf("checkpoint %d took %.1f ms", i+1, ms(time.Since(c0)))
			}
		}
		writes = r.collect(samples, KindUpdate, time.Since(t0))
		r.rep.diagf("write phase: %d updates in %.2f s (script sized for %d s)", len(samples), time.Since(t0).Seconds(), cfg.seconds)
		// One client, so samples are in script order.
		p50 := func(part []sample) float64 {
			var lat []float64
			for _, s := range part {
				if s.ok {
					lat = append(lat, ms(s.lat))
				}
			}
			sort.Float64s(lat)
			return percentile(lat, 50)
		}
		tenth := len(samples) / 10
		r.rep.diagf("update p50 over the first tenth of the script %.3f ms, over the last tenth %.3f ms", p50(samples[:tenth]), p50(samples[len(samples)-tenth:]))
		t0 = time.Now()
		reads = r.collect(r.closedLoop(probe, clients, time.Time{}), KindQuery, time.Since(t0))
		if afterReads, err = r.cl.varz(); err != nil {
			return nil, err
		}
	}
	r.latencyMetrics("query", reads, 95, true)
	r.latencyMetrics("update", writes, 90, false)

	// Counters, read before the server is killed.
	vz, err := r.cl.varz()
	if err != nil {
		return nil, err
	}
	pc := afterReads.PlanCache
	lookups := float64(pc.Hits + pc.Misses)
	hitRatio := float64(pc.Hits) / lookups
	r.rep.diagf("plancache.hit_ratio %.4f  plancache.containment_ratio %.4f  plancache.evictions %d  invalidations %d",
		hitRatio, float64(pc.HitsContainment)/lookups, pc.Evictions, pc.Invalidations)
	r.rep.diagf("service.shed_total %d  service.update_retries %d  mutate.conflicts %d  store.versions_live %d",
		vz.Shed, vz.UpdateRetries, vz.Mutate.Conflicts, vz.Mutate.VersionsLive)
	if sp.name == "read_coldplan" && hitRatio >= 0.05 {
		r.rep.fail("read_coldplan must miss the plan cache: hit ratio %.3f", hitRatio)
	}
	if vz.WAL.Appended > 0 {
		r.rep.diagf("wal: %d records, %d fsyncs (%.3f per update), %d bytes (%.1f per record)",
			vz.WAL.Appended, vz.WAL.Synced, float64(vz.WAL.Synced)/float64(vz.WAL.Appended),
			vz.WAL.Bytes, float64(vz.WAL.Bytes)/float64(vz.WAL.Appended))
	}
	// WAL counters restart with the process, but every set-up starts a
	// fresh process, so they cover exactly this run's acknowledged updates.
	r.metric("wal_bytes_per_user_byte", float64(vz.WAL.Bytes)/float64(r.userB), "ratio")
	snapBytes, err := dirSize(r.snap)
	if err != nil {
		return nil, err
	}
	r.metric("snapshot_bytes_per_xml_byte", float64(snapBytes)/float64(len(r.xml)), "ratio")

	// Crash and recover: SIGKILL, restart on the same snapshot and WAL
	// directories, wait for /readyz. Nothing checkpoints in between, so a
	// second crash replays the same records: short recoveries are repeated
	// (up to recoveryRepeats times or recoveryBudget in total) and the
	// median is reported.
	var recoveries []float64
	for total := 0.0; len(recoveries) < recoveryRepeats && total < recoveryBudget.Seconds(); {
		t0 := time.Now()
		r.stop()
		if err := r.spawn(false); err != nil {
			return nil, fmt.Errorf("restart after kill: %w", err)
		}
		recoveries = append(recoveries, time.Since(t0).Seconds())
		total += recoveries[len(recoveries)-1]
	}
	r.metric("recovery_s", median(recoveries), "s")
	r.rep.diagf("recovery_s repetitions: %.4f", recoveries)
	if vz, err = r.cl.varz(); err != nil {
		return nil, err
	}
	r.rep.diagf("recovery replayed %d records, skipped %d", vz.Recovery.Applied, vz.Recovery.Skipped)

	// Peak memory is read here: the document check's whole-section dumps
	// are the driver's doing, not the workload's.
	r.peakKB = max(r.peakKB, r.srv.vmHWM())
	r.metric("peak_rss_mb", float64(r.peakKB)/1024, "MB")

	// The recovered document must hold exactly the acknowledged updates.
	want, err := r.orc.documentAnswers(r.state, sp.factor)
	if err != nil {
		return nil, err
	}
	for i, q := range sectionQueries {
		r.rep.attempted++
		got, err := r.cl.query(encodeQuery(q))
		if err != nil {
			r.rep.fail("document check %d: %v", i, err)
		} else if got != want[i] {
			r.rep.fail("document check %d: served document differs from the replay of %d acknowledged fragments", i, len(r.state))
		}
	}
	r.stop()
	r.rep.diagf("whole run took %.2f s", time.Since(began).Seconds())
	return r.rep, nil
}

func (r *run) metric(name string, v float64, unit string) {
	r.rep.metrics[name] = Metric{Value: v, Unit: unit}
}

// phase is one request kind's outcome in a timed phase.
type phase struct {
	lat  []float64 // latencies of the successful requests in milliseconds, sorted
	wall time.Duration
}

func (r *run) collect(samples []sample, kind Kind, wall time.Duration) phase {
	p := phase{wall: wall}
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		r.rep.attempted++
		if s.ok {
			p.lat = append(p.lat, ms(s.lat))
		}
	}
	sort.Float64s(p.lat)
	return p
}

// latencyMetrics reports a kind's median latency, tail latency and
// throughput over the whole phase. gated says whether the tail is an
// end-to-end metric or only printed.
func (r *run) latencyMetrics(kind string, p phase, tail float64, gated bool) {
	n := len(p.lat)
	report := func(name, unit string, v float64) {
		r.metric(name, v, unit)
		r.rep.counts[name] = n
	}
	report(kind+"_p50_ms", "ms", percentile(p.lat, 50))
	report(kind+"_per_s", "1/s", float64(n)/p.wall.Seconds())
	pt := fmt.Sprintf("%s_p%g_ms", kind, tail)
	if gated {
		report(pt, "ms", percentile(p.lat, tail))
	} else {
		r.rep.diagf("%s %.3f (diagnostic, n=%d)", pt, percentile(p.lat, tail), n)
	}
	sup := supportedPercentile(n)
	if sup < tail {
		r.rep.diagf("%s: only %d samples, p%g has fewer than %d beyond it (highest supported: p%g)", pt, n, tail, minBeyond, sup)
	}
	for _, q := range []float64{99, 99.9} {
		if sup >= q {
			r.rep.diagf("%s_p%g_ms %.3f (diagnostic, n=%d)", kind, q, percentile(p.lat, q), n)
		}
	}
}

// rateReport prints mixed_95_5's open-loop diagnostics: how late the
// generator ran, whether its backlog grew, and max_rate_ok — the one
// offered rate if it was sustained, else 0.
func (r *run) rateReport(samples []sample, dur time.Duration) {
	var readLat []float64
	late := make([]time.Duration, len(samples))
	failed := 0
	for i, s := range samples {
		late[i] = s.late
		switch {
		case !s.ok:
			failed++
		case s.kind == KindQuery:
			readLat = append(readLat, ms(s.lat))
		}
	}
	sort.Float64s(readLat)
	res := rateResult{readP95MS: percentile(readLat, 95), failed: failed, growing: backlogGrowing(late, dur)}
	maxRateOK := 0.0
	if res.ok(readLimitMS) {
		maxRateOK = mixedRate
	}
	r.rep.diagf("driver.sched_lag_p95_ms %.3f  backlog growing %v", percentile(sortedCopy(durationsMS(late)), 95), res.growing)
	r.rep.diagf("max_rate_ok %.0f 1/s (offered %.0f, read p95 %.2f ms over the whole phase, limit %.0f ms)",
		maxRateOK, mixedRate, res.readP95MS, readLimitMS)
}

// distinctQueries returns the first occurrence of each query text, base
// queries before their variants so the variants find a plan to reuse.
func distinctQueries(reqs []Request) []Request {
	seen := map[string]bool{}
	var out []Request
	for pass := 0; pass < 2; pass++ {
		for _, q := range reqs {
			variant := len(q.Tmpl) > 0 && q.Tmpl[len(q.Tmpl)-1] == 'v'
			if q.Kind != KindQuery || seen[q.Query] || variant != (pass == 1) {
				continue
			}
			seen[q.Query] = true
			out = append(out, q)
		}
	}
	return out
}
