package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"tlc"
)

// BenchResult is one (query, engine) measurement in machine-readable form
// — the go-test benchmark triple (ns/op, bytes/op, allocs/op) plus the
// result cardinality that makes cross-run comparisons meaningful.
type BenchResult struct {
	Query       string `json:"query"`
	Engine      string `json:"engine"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	Results     int    `json:"results"`
	DNF         bool   `json:"dnf,omitempty"`
	Err         string `json:"error,omitempty"`
}

// BenchReport is the JSON document tlcbench -json writes: the Figure 15
// workload measurements plus the configuration they were taken under, so a
// later run can refuse to compare apples to oranges.
type BenchReport struct {
	Factor      float64       `json:"factor"`
	Reps        int           `json:"reps"`
	Parallelism int           `json:"parallelism"`
	Shards      int           `json:"shards,omitempty"`
	Results     []BenchResult `json:"results"`
	// Startup, when present, is the cold-start comparison of tlcbench
	// -startup: XML parse+index versus snapshot open (its own factor —
	// startup is typically measured at a larger scale than the workload).
	Startup *StartupReport `json:"startup,omitempty"`
	// UpdateMix, when present, is the mixed read/write workload of
	// tlcbench -update-mix: MVCC update throughput and the reader-latency
	// quantiles against a read-only baseline.
	UpdateMix *UpdateMixReport `json:"update_mix,omitempty"`
	// ContainMix, when present, is the tlcbench -contain-mix workload:
	// plan-cache exact versus containment reuse under a skewed client mix.
	ContainMix *ContainMixReport `json:"contain_mix,omitempty"`
	// Durability, when present, is the tlcbench -durability sweep: update
	// commit cost under each WAL fsync policy (off, batch, always).
	Durability *DurabilityReport `json:"durability,omitempty"`
}

// Report flattens Figure 15 rows into a BenchReport.
func Report(rows []Row, engines []tlc.Engine, cfg Config) *BenchReport {
	cfg = cfg.withDefaults()
	if len(engines) == 0 {
		engines = cfg.Engines
	}
	rep := &BenchReport{Factor: cfg.Factor, Reps: cfg.Reps, Parallelism: cfg.Parallelism, Shards: cfg.Shards}
	for _, r := range rows {
		for _, e := range engines {
			m, ok := r.Cells[e.String()]
			if !ok {
				continue
			}
			br := BenchResult{
				Query:       r.QueryID,
				Engine:      e.String(),
				NsPerOp:     m.Time.Nanoseconds(),
				BytesPerOp:  m.AllocBytes,
				AllocsPerOp: m.Allocs,
				Results:     m.Results,
				DNF:         m.DNF,
			}
			if m.Err != nil {
				br.Err = m.Err.Error()
			}
			rep.Results = append(rep.Results, br)
		}
	}
	return rep
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("harness: bad report %s: %w", path, err)
	}
	return &r, nil
}

// CompareAllocs compares the current report's allocs/op against a committed
// baseline and returns one warning line per regression beyond tolerance
// (e.g. 0.10 = 10%). Allocation counts — unlike wall-clock times — are
// nearly machine-independent, which is what makes a committed baseline
// meaningful in CI; the caller decides whether warnings fail the build.
// Cells present in only one report, and runs at a different scale factor,
// are reported too (a factor mismatch makes every comparison meaningless).
func CompareAllocs(cur, base *BenchReport, tolerance float64) []string {
	var warns []string
	if cur.Factor != base.Factor {
		return []string{fmt.Sprintf(
			"factor mismatch: current %g vs baseline %g — allocation counts are not comparable",
			cur.Factor, base.Factor)}
	}
	baseline := make(map[string]BenchResult, len(base.Results))
	for _, b := range base.Results {
		baseline[b.Query+"/"+b.Engine] = b
	}
	seen := make(map[string]bool, len(cur.Results))
	for _, c := range cur.Results {
		key := c.Query + "/" + c.Engine
		seen[key] = true
		b, ok := baseline[key]
		if !ok {
			warns = append(warns, fmt.Sprintf("%s: no baseline entry", key))
			continue
		}
		if c.Err != "" || b.Err != "" || b.AllocsPerOp == 0 {
			continue
		}
		ratio := float64(c.AllocsPerOp) / float64(b.AllocsPerOp)
		if ratio > 1+tolerance {
			warns = append(warns, fmt.Sprintf(
				"%s: allocs/op regressed %.1f%% (%d -> %d)",
				key, (ratio-1)*100, b.AllocsPerOp, c.AllocsPerOp))
		}
	}
	for key := range baseline {
		if !seen[key] {
			warns = append(warns, fmt.Sprintf("%s: present in baseline but not in this run", key))
		}
	}
	sort.Strings(warns)
	return warns
}
