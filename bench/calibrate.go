package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists the end-to-end metrics with the regression bounds that
// -calibrate fixed on the seed commit; BENCHMARK.json repeats them and a
// unit test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"update_p50_ms", "ms", "lower", 0.25},
	{"update_per_s", "1/s", "higher", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"wal_bytes_per_user_byte", "ratio", "lower", 0.05},
	{"snapshot_bytes_per_xml_byte", "ratio", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// suggestedBound is the rule -calibrate applies: three times the observed
// spread (the contract wants every spread below a third of its bound), at
// least a twentieth, and never above the quarter that BENCHMARK.json
// allows.
func suggestedBound(spread float64) float64 {
	return math.Min(0.25, math.Max(0.05, 3*spread))
}

// oneRun runs this binary once more, as the driver does — a process per
// run, so no run inherits the heap or the connections of the one before —
// and returns the result line it printed.
func oneRun(ctx context.Context, cfg config, workload string, seed int64) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-tlcserve", cfg.tlcserve, "-work", cfg.work, "-out", cfg.out,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(cfg.seconds), "-trace", "0"}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) } // the run stops its server itself
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last line of the run is not a result: %w", err)
	}
	return res, nil
}

// calibrateRuns makes k back-to-back runs of each workload, seeds
// seed…seed+k-1, and prints median, quartile spread and suggested bound
// per metric and workload.
func calibrateRuns(ctx context.Context, cfg config, run []spec, k int, jsonOut string) error {
	var saved []savedRun
	worst := map[string]float64{}
	for _, sp := range run {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			seed := cfg.seed + int64(i)
			res, err := oneRun(ctx, cfg, sp.name, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
			}
			saved = append(saved, savedRun{Workload: sp.name, Seed: seed, Result: res})
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s run %d/%d done\n", sp.name, i+1, k)
		}
		fmt.Printf("== %s: %d runs ==\n", sp.name, k)
		fmt.Printf("  %-30s %14s %10s %10s\n", "metric", "median", "spread", "bound")
		for _, def := range endToEnd {
			xs := values[def.Name]
			s := spread(xs)
			if s > worst[def.Name] {
				worst[def.Name] = s
			}
			fmt.Printf("  %-30s %14.4f %10.4f %10.2f\n", def.Name, median(xs), s, suggestedBound(s))
		}
	}
	fmt.Println("== bounds: max(0.05, 3 × widest spread over the workloads) ==")
	for _, def := range endToEnd {
		note := ""
		if worst[def.Name] > 0.10 {
			note = "  spread above a tenth: lengthen the run or demote to a diagnostic"
		}
		fmt.Printf("  %-30s %6.2f (in use: %.2f)%s\n", def.Name, suggestedBound(worst[def.Name]), def.Bound, note)
	}
	if jsonOut != "" {
		return writeSaved(jsonOut, saved)
	}
	return nil
}

// verdict classifies one metric × workload of a comparison.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
	regressed  verdict = "regressed"
)

// judge compares a metric's runs on a base and a changed build. The
// change is worse by the share the metric moved in its bad direction. It
// regressed when that share exceeds the bound; otherwise, if the base's
// own spread is wider than the bound, the benchmark cannot tell and the
// pair is unresolved; it improved when it moved the good way by more than
// the base's spread.
func judge(def metricDef, base, change []float64) (verdict, float64, float64) {
	mb, mc := median(base), median(change)
	if mb == 0 {
		return unresolved, 0, 0
	}
	worse := (mc - mb) / math.Abs(mb)
	if def.Better == "higher" {
		worse = -worse
	}
	sp := spread(base)
	switch {
	case worse > def.Bound:
		return regressed, mc / mb, sp
	case sp > def.Bound:
		return unresolved, mc / mb, sp
	case -worse > sp && -worse > 0:
		return improved, mc / mb, sp
	}
	return unchanged, mc / mb, sp
}

func loadSaved(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareReports prints, for every workload and metric the two -json
// files share, the verdict and the ratio with its base.
func compareReports(basePath, changePath string) error {
	base, err := loadSaved(basePath)
	if err != nil {
		return err
	}
	change, err := loadSaved(changePath)
	if err != nil {
		return err
	}
	var workloads []string
	for w := range base {
		if change[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		fmt.Printf("== %s ==\n", w)
		var names []string
		for n := range base[w] {
			if change[w][n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			def, ok := metricByName(n)
			if !ok {
				// Per-layer metrics carry no bound or direction: show the move.
				mb, mc := median(base[w][n]), median(change[w][n])
				fmt.Printf("  %-32s %-10s %12.4f -> %12.4f\n", n, "(layer)", mb, mc)
				continue
			}
			v, ratio, sp := judge(def, base[w][n], change[w][n])
			fmt.Printf("  %-32s %-10s %.4f × base %.4f %s (base spread %.3f, bound %.2f, %d vs %d runs)\n",
				n, v, ratio, median(base[w][n]), def.Unit, sp, def.Bound, len(base[w][n]), len(change[w][n]))
		}
	}
	return nil
}
