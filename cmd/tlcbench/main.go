// Command tlcbench regenerates the evaluation tables of the TLC paper:
//
//	tlcbench -fig 15 -factor 0.1        # Figure 15: workload × engines
//	tlcbench -fig 16 -factor 0.1        # Figure 16: TLC vs OPT rewrites
//	tlcbench -fig 17                    # Figure 17: scalability sweep
//	tlcbench -fig all                   # everything
//
// Times are wall-clock seconds (trimmed mean of -reps runs). -queries
// restricts Figure 15 to a comma-separated list of query IDs; -engines
// restricts the engine columns (e.g. -engines TLC,GTP). -parallel sets the
// intra-query worker budget (default 1, the paper's serial methodology;
// 0 means GOMAXPROCS). -planner=off disables the cost-based planner and
// runs the plans exactly as translated, for ablating the planner itself.
//
// -json FILE writes the Figure 15 measurements as machine-readable
// ns/op, bytes/op and allocs/op per (query, engine); -baseline FILE
// compares the run's allocs/op against such a committed report and warns
// on regressions beyond 10% (allocation counts are machine-independent
// enough to track in CI, wall-clock times are not).
//
// -snapshot DIR opens the benchmark database from a columnar snapshot
// when DIR holds one (and writes one there after loading otherwise), and
// -startup measures the cold-start comparison itself — XML parse+index
// versus snapshot open — at -startup-factor, reporting wall time and
// live heap for both paths (recorded under "startup" in the -json
// report):
//
//	tlcbench -startup -startup-factor 1 -json bench.json
//
// -update-mix R/W runs a mixed read/write workload (e.g. 95/5):
// concurrent readers evaluate a pattern query while a writer applies
// paired subtree inserts and deletes through the MVCC update path,
// reporting update throughput and the reader-latency quantiles against a
// read-only baseline (recorded under "update_mix" in the -json report):
//
//	tlcbench -update-mix 95/5 -factor 0.1 -json bench.json
//
// -contain-mix runs a skewed multi-client query mix through the plan
// cache, reporting how much of the workload was served by exact hits and
// containment-based reuse instead of compilation (recorded under
// "contain_mix" in the -json report):
//
//	tlcbench -contain-mix -factor 0.1 -json bench.json
//
// -durability sweeps the WAL fsync policies (off, batch, always) with a
// sequential update workload, reporting commit cost and throughput per
// policy and the overhead each pays relative to no durability (recorded
// under "durability" in the -json report):
//
//	tlcbench -durability -durability-ops 1000 -factor 0.01 -json bench.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tlc"
	"tlc/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 15, 16, 17 or all")
	factor := flag.Float64("factor", 0.1, "XMark scale factor for figures 15/16")
	reps := flag.Int("reps", 5, "timed repetitions per query")
	deadline := flag.Duration("deadline", 10*time.Minute, "per-run DNF deadline")
	queries := flag.String("queries", "", "comma-separated query IDs (figure 15 only)")
	engines := flag.String("engines", "", "comma-separated engines: TLC,OPT,GTP,TAX,NAV")
	factors := flag.String("factors", "0.1,0.5,1,2,5", "scale factors for figure 17")
	parallel := flag.Int("parallel", 1, "intra-query parallelism: 1 = serial (paper methodology), 0 = GOMAXPROCS")
	shards := flag.Int("shards", 1, "store shard count: 1 = unpartitioned (paper methodology), 0 = GOMAXPROCS")
	planner := flag.String("planner", "on", "cost-based planner: on (default) or off (run plans as translated)")
	jsonOut := flag.String("json", "", "write the figure 15 measurements (ns/op, bytes/op, allocs/op per query and engine) to this file")
	baseline := flag.String("baseline", "", "compare the figure 15 allocs/op against this committed -json report; regressions beyond 10% print warnings (the exit code stays 0)")
	snapshot := flag.String("snapshot", "", "snapshot directory for the figure 15/16 database: open it if it holds a snapshot (skipping the XMark load), otherwise write one there after loading")
	startup := flag.Bool("startup", false, "measure cold start — XML parse+index vs snapshot open — and report wall time and heap (included in -json under \"startup\")")
	startupFactor := flag.Float64("startup-factor", 1, "XMark scale factor for the -startup measurement")
	updateMix := flag.String("update-mix", "", "mixed read/write ratio \"95/5\": concurrent readers vs one MVCC writer, reporting update throughput and reader-latency impact (included in -json under \"update_mix\")")
	updateOps := flag.Int("update-ops", 2000, "total operations for the -update-mix workload")
	updateReaders := flag.Int("update-readers", 4, "concurrent reader goroutines for -update-mix")
	containMix := flag.Bool("contain-mix", false, "run the skewed multi-client plan-cache mix — exact vs containment reuse (included in -json under \"contain_mix\")")
	containClients := flag.Int("contain-clients", 4, "concurrent client goroutines for -contain-mix")
	containOps := flag.Int("contain-ops", 2000, "total queries for the -contain-mix workload")
	durability := flag.Bool("durability", false, "run the WAL fsync-policy sweep — update commit cost under off, batch and always (included in -json under \"durability\")")
	durabilityOps := flag.Int("durability-ops", 1000, "committed updates per policy for the -durability sweep")
	flag.Parse()

	cfg := harness.Config{Factor: *factor, Reps: *reps, Deadline: *deadline, Parallelism: *parallel, Shards: *shards}
	if *parallel == 0 {
		cfg.Parallelism = -1 // harness treats 0 as "default to 1"; -1 forces GOMAXPROCS
	}
	if *shards == 0 {
		cfg.Shards = -1 // same convention for the shard count
	}
	switch *planner {
	case "on":
	case "off":
		cfg.PlannerOff = true
	default:
		fmt.Fprintf(os.Stderr, "tlcbench: bad -planner %q, want on or off\n", *planner)
		os.Exit(2)
	}
	if *engines != "" {
		cfg.Engines = parseEngines(*engines)
	}

	switch *fig {
	case "15", "16", "all":
	case "17":
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "tlcbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if (*startup || *updateMix != "" || *containMix || *durability) && *fig == "all" && !figFlagSet() {
		// A standalone experiment flag (no explicit -fig) measures only
		// that experiment.
		*fig = "none"
	}

	var rep *harness.BenchReport
	if *fig == "15" || *fig == "16" || *fig == "all" {
		db, err := openBenchDatabase(*factor, cfg.Shards, *snapshot)
		if err != nil {
			fatal(err)
		}
		defer db.Close()

		if *fig == "15" || *fig == "all" {
			fmt.Printf("=== Figure 15: execution time, XMark factor %g ===\n", *factor)
			rows := runFig15(db, cfg, *queries)
			fmt.Print(harness.FormatFigure15(rows, cfg.Engines))
			fmt.Println()
			if *jsonOut != "" || *baseline != "" {
				rep = harness.Report(rows, cfg.Engines, cfg)
			}
			if *baseline != "" {
				base, err := harness.ReadReport(*baseline)
				if err != nil {
					fatal(err)
				}
				warns := harness.CompareAllocs(rep, base, 0.10)
				if len(warns) == 0 {
					fmt.Printf("allocs/op within 10%% of baseline %s\n", *baseline)
				}
				for _, w := range warns {
					fmt.Printf("WARNING: %s\n", w)
				}
			}
		}
		if *fig == "16" || *fig == "all" {
			fmt.Printf("=== Figure 16: TLC vs OPT (Flatten and Shadow/Illuminate rewrites) ===\n")
			fmt.Print(harness.FormatFigure16(harness.RunFigure16(db, cfg)))
			fmt.Println()
		}
	}

	if *fig == "17" || *fig == "all" {
		fs, err := parseFactors(*factors)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== Figure 17: TLC scalability, factors %v ===\n", fs)
		points, err := harness.RunFigure17(fs, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatFigure17(points))
	}

	if *startup {
		dir, err := os.MkdirTemp("", "tlc-startup-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		fmt.Printf("=== Cold start: XML load vs snapshot open, XMark factor %g ===\n", *startupFactor)
		sr, err := harness.MeasureStartup(*startupFactor, cfg.Shards, dir)
		if err != nil {
			fatal(err)
		}
		fmt.Print(sr.String())
		if *jsonOut != "" {
			if rep == nil {
				rep = &harness.BenchReport{Factor: *factor, Reps: cfg.Reps, Parallelism: cfg.Parallelism, Shards: cfg.Shards}
			}
			rep.Startup = sr
		}
	}

	if *updateMix != "" {
		readPct, err := parseMix(*updateMix)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== Update mix: %d/%d read/write, XMark factor %g ===\n", readPct, 100-readPct, *factor)
		ur, err := harness.MeasureUpdateMix(*factor, cfg.Shards, readPct, *updateOps, *updateReaders)
		if err != nil {
			fatal(err)
		}
		fmt.Print(ur.String())
		if *jsonOut != "" {
			if rep == nil {
				rep = &harness.BenchReport{Factor: *factor, Reps: cfg.Reps, Parallelism: cfg.Parallelism, Shards: cfg.Shards}
			}
			rep.UpdateMix = ur
		}
	}

	if *containMix {
		fmt.Printf("=== Containment mix: %d clients, skewed thresholds, XMark factor %g ===\n", *containClients, *factor)
		cr, err := harness.MeasureContainMix(*factor, cfg.Shards, *containClients, *containOps)
		if err != nil {
			fatal(err)
		}
		fmt.Print(cr.String())
		if *jsonOut != "" {
			if rep == nil {
				rep = &harness.BenchReport{Factor: *factor, Reps: cfg.Reps, Parallelism: cfg.Parallelism, Shards: cfg.Shards}
			}
			rep.ContainMix = cr
		}
	}

	if *durability {
		dir, err := os.MkdirTemp("", "tlc-durability-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		fmt.Printf("=== Durability: WAL fsync-policy sweep, XMark factor %g ===\n", *factor)
		dur, err := harness.MeasureDurability(*factor, cfg.Shards, *durabilityOps, dir)
		if err != nil {
			fatal(err)
		}
		fmt.Print(dur.String())
		if *jsonOut != "" {
			if rep == nil {
				rep = &harness.BenchReport{Factor: *factor, Reps: cfg.Reps, Parallelism: cfg.Parallelism, Shards: cfg.Shards}
			}
			rep.Durability = dur
		}
	}

	if *jsonOut != "" && rep != nil {
		if err := rep.WriteFile(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// figFlagSet reports whether -fig was given explicitly.
func figFlagSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fig" {
			set = true
		}
	})
	return set
}

// openBenchDatabase opens the figure 15/16 database: from snapDir when it
// holds a snapshot (mmap fast start), otherwise by generating and loading
// XMark at factor — writing a snapshot to snapDir afterwards if one was
// requested.
func openBenchDatabase(factor float64, shards int, snapDir string) (*tlc.Database, error) {
	if snapDir != "" && tlc.SnapshotExists(snapDir) {
		start := time.Now()
		db, err := tlc.OpenSnapshot(snapDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("opened snapshot %s in %.3fs\n\n", snapDir, time.Since(start).Seconds())
		return db, nil
	}
	fmt.Printf("loading XMark factor %g ...\n", factor)
	start := time.Now()
	db, err := harness.OpenDatabase(factor, shards)
	if err != nil {
		return nil, err
	}
	fmt.Printf("loaded in %.2fs\n\n", time.Since(start).Seconds())
	if snapDir != "" {
		info, err := db.Snapshot(snapDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote snapshot %s (%d bytes)\n\n", info.Dir, info.Bytes)
	}
	return db, nil
}

func runFig15(db *tlc.Database, cfg harness.Config, filter string) []harness.Row {
	if filter == "" {
		return harness.RunFigure15(db, cfg)
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(filter, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	var rows []harness.Row
	for _, q := range tlc.Workload() {
		if !wanted[q.ID] {
			continue
		}
		row := harness.Row{QueryID: q.ID, Comment: q.Comment, Cells: map[string]harness.Measurement{}}
		engs := cfg.Engines
		if len(engs) == 0 {
			engs = tlc.Engines()
		}
		for _, e := range engs {
			row.Cells[e.String()] = harness.Measure(db, q.Text, e, cfg)
		}
		rows = append(rows, row)
	}
	return rows
}

func parseEngines(s string) []tlc.Engine {
	names := map[string]tlc.Engine{
		"TLC": tlc.TLC, "OPT": tlc.TLCOpt, "GTP": tlc.GTP, "TAX": tlc.TAX, "NAV": tlc.Nav,
	}
	var out []tlc.Engine
	for _, part := range strings.Split(s, ",") {
		e, ok := names[strings.ToUpper(strings.TrimSpace(part))]
		if !ok {
			fatal(fmt.Errorf("unknown engine %q", part))
		}
		out = append(out, e)
	}
	return out
}

// parseMix parses a "reads/writes" percentage pair like "95/5".
func parseMix(s string) (int, error) {
	r, w, ok := strings.Cut(s, "/")
	if !ok {
		return 0, fmt.Errorf("bad -update-mix %q, want e.g. 95/5", s)
	}
	rp, err1 := strconv.Atoi(strings.TrimSpace(r))
	wp, err2 := strconv.Atoi(strings.TrimSpace(w))
	if err1 != nil || err2 != nil || rp+wp != 100 || rp <= 0 || wp <= 0 {
		return 0, fmt.Errorf("bad -update-mix %q, want two positive percentages summing to 100", s)
	}
	return rp, nil
}

func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad factor %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlcbench:", err)
	os.Exit(1)
}
