// Command bench is the repository's benchmark: it drives a real tlcserve
// subprocess over HTTP through four seeded workloads and reports the
// end-to-end metrics a client sees, or — with -trace 1 — replays the same
// requests in-process and reports where each layer spends its time. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload read_hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                  # all four workloads
//	bash bench/run.sh --seed 1 --trace 1        # per-layer numbers and span files
//	bash bench/run.sh --smoke                   # small and quick, for CI
//	bash bench/run.sh --calibrate 5             # spreads and bounds
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

const defaultSeconds = 20

func main() {
	workload := flag.String("workload", "", "workload to run: read_hot, read_coldplan, mixed_95_5, write_only (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the document, the request streams, the update script and the open-loop schedule")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end run against tlcserve; 1: in-process traced run reporting per-layer metrics")
	smoke := flag.Bool("smoke", false, "small document and two-second phases: every metric name, every check, under 30 s")
	calibrate := flag.Int("calibrate", 0, "run each workload K (at least 5) times with seeds seed..seed+K-1 and print median, spread and suggested bound per metric")
	compare := flag.Bool("compare", false, "compare two -json reports: bench -compare a.json b.json")
	jsonOut := flag.String("json", "", "also write every run of this invocation to this file (input of -compare)")
	tlcserve := flag.String("tlcserve", "", "path of the tlcserve binary (run.sh builds it)")
	work := flag.String("work", "", "scratch directory for documents, WAL and snapshots (inside the checkout)")
	out := flag.String("out", "", "directory the traced run writes trace-<workload>.json into")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if *tlcserve == "" || *work == "" || *out == "" {
		fatalf("-tlcserve, -work and -out are required (use bench/run.sh, which builds the server and sets both)")
	}
	if *smoke {
		*seconds = smokeSeconds
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	abs, err := filepath.Abs(*work)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, tlcserve: *tlcserve, work: abs, out: *out}

	// No server may outlive the benchmark, whatever ends it.
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		run = []spec{sp}
	}

	if *calibrate > 0 {
		if *calibrate < 5 {
			fatalf("-calibrate needs at least 5 runs")
		}
		if err := calibrateRuns(ctx, cfg, run, *calibrate, *jsonOut); err != nil {
			fatalf("%v", err)
		}
		return
	}
	go func() {
		<-ctx.Done()
		killAll()
		os.Exit(130)
	}()

	var saved []savedRun
	allCorrect := true
	// -smoke shows every metric name: both kinds of run, per workload.
	modes := []int{*trace}
	if *smoke {
		modes = []int{0, 1}
	}
	for _, sp := range run {
		for _, mode := range modes {
			var res result
			var err error
			if mode == 1 {
				res, err = tracedRun(cfg, sp)
			} else {
				var rep *report
				if rep, err = runWorkload(cfg, sp); err == nil {
					printReport(rep)
					res = rep.result()
				}
			}
			if err != nil {
				killAll()
				fatalf("%s: %v", sp.name, err)
			}
			allCorrect = allCorrect && res.Correct
			saved = append(saved, savedRun{Workload: sp.name, Seed: cfg.seed, Trace: mode, Result: res})
			printResultLine(res)
		}
	}
	if *jsonOut != "" {
		if err := writeSaved(*jsonOut, saved); err != nil {
			fatalf("%v", err)
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func printResultLine(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func (r *report) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// printReport writes the human-readable form of an end-to-end run.
func printReport(r *report) {
	fmt.Printf("== %s ==\n", r.workload)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("  %-30s %14.4f %s", n, m.Value, m.Unit)
		if c, ok := r.counts[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-30s %14.6f        (%d failed, refused or wrong of %d attempted)\n", "failed_share", share, r.failed, r.attempted)
	for _, d := range r.diag {
		fmt.Println("  · " + d)
	}
	for _, e := range r.errs {
		fmt.Println("  ! " + e)
	}
}

// savedRun is one run in a -json file.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func writeSaved(path string, runs []savedRun) error {
	b, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
