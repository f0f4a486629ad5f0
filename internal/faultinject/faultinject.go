// Package faultinject provides named, deterministic fault-injection
// points compiled into the engine's failure-prone seams: store document
// loads, structural and value joins, matcher allocation, plan-cache fill,
// and the service handlers. The chaos test suite drives them to prove the
// containment layer holds — every injected failure must surface as a
// well-formed taxonomy error for that request only.
//
// Points are inert by default: Hit is a single atomic load when no spec is
// installed, so production pays nothing for the instrumentation. A spec is
// installed programmatically (Enable) or from the TLC_FAULTS environment
// variable / -faults flag in tlcserve:
//
//	TLC_FAULTS="store.load=error;physical.valuejoin=panic,after=2;service.query=slow,delay=50ms,times=1"
//
// Each rule is "<point>=<mode>" plus optional comma-separated options:
//
//	mode:   error | panic | slow
//	delay=D   latency injected by slow (default 10ms)
//	after=N   start firing at the N-th hit of the point (default 1)
//	times=M   fire at most M times (default unlimited)
//	p=F,seed=S  fire with probability F per eligible hit, from a rand
//	          seeded with S — deterministic across runs, no wall-clock
//	          entropy (default p=1, always fire)
//
// Counting is per point and deterministic, which is what lets the chaos
// tests assert exact outcomes.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected error; the service taxonomy
// classifies it as internal (500). Call sites return it verbatim.
var ErrInjected = errors.New("faultinject: injected fault")

// The injection-point catalog. Every Hit call site names one of these;
// the chaos suite iterates the catalog to prove coverage.
const (
	// PointStoreLoad fires in Store.Load, before a parsed document is
	// indexed — a failing storage backend.
	PointStoreLoad = "store.load"
	// PointStructJoin fires on entry of every structural join.
	PointStructJoin = "physical.structjoin"
	// PointValueJoin fires on entry of every value/cartesian join.
	PointValueJoin = "physical.valuejoin"
	// PointMatcher fires when a matcher computes the ordinal vector of a
	// pattern node — once per (document, pattern node) and matcher.
	PointMatcher = "physical.matcher"
	// PointPlanCacheFill fires when the plan cache compiles on a miss.
	PointPlanCacheFill = "plancache.fill"
	// PointServiceQuery, PointServiceExplain, PointServiceProfile,
	// PointServiceLoad and PointServiceUpdate fire at the top of the
	// corresponding handler.
	PointServiceQuery   = "service.query"
	PointServiceExplain = "service.explain"
	PointServiceProfile = "service.profile"
	PointServiceLoad    = "service.load"
	PointServiceUpdate  = "service.update"
	// PointMutateCommit fires in Store.Commit, before the directory swap
	// that publishes a new document version — a failing write path. An
	// injected failure must leave the store on the old version.
	PointMutateCommit = "mutate.commit"
	// PointMutateStatsDelta fires when a splice applies its incremental
	// statistics delta to the catalog; an injected failure must abort the
	// whole mutation with no partial state.
	PointMutateStatsDelta = "mutate.statsdelta"
	// PointWALAppend fires at the top of wal.Log.Append, before the record
	// is written — a commit that dies here must leave no trace in the log.
	PointWALAppend = "wal.append"
	// PointWALFsync fires before the WAL fsync syscall — the window where
	// a record is written but not yet durable. A slow-mode stall here is
	// how the chaos harness times its SIGKILL.
	PointWALFsync = "wal.fsync"
	// PointWALRotate fires at the start of a segment rotation (the first
	// step of the snapshot checkpoint protocol).
	PointWALRotate = "wal.rotate"
	// PointRecoverReplay fires once per record applied during WAL replay
	// at startup — a crash mid-recovery must itself be recoverable.
	PointRecoverReplay = "recover.replay"
)

// Catalog returns every registered injection point name, sorted.
func Catalog() []string {
	pts := []string{
		PointStoreLoad,
		PointStructJoin,
		PointValueJoin,
		PointMatcher,
		PointPlanCacheFill,
		PointServiceQuery,
		PointServiceExplain,
		PointServiceProfile,
		PointServiceLoad,
		PointServiceUpdate,
		PointMutateCommit,
		PointMutateStatsDelta,
		PointWALAppend,
		PointWALFsync,
		PointWALRotate,
		PointRecoverReplay,
	}
	sort.Strings(pts)
	return pts
}

// Mode is what an armed point does when it fires.
type Mode int

// Injection modes.
const (
	// ModeError makes Hit return ErrInjected.
	ModeError Mode = iota
	// ModePanic makes Hit panic — exercising the recover barriers.
	ModePanic
	// ModeSlow makes Hit sleep for the rule's delay, then proceed.
	ModeSlow
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeSlow:
		return "slow"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// rule is one armed injection point.
type rule struct {
	point string
	mode  Mode
	delay time.Duration
	after int64 // fire from this hit number on (1-based)
	times int64 // max fires; 0 = unlimited
	prob  float64

	hits  atomic.Int64
	fired atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand // nil when prob == 1
}

var (
	// enabled short-circuits Hit when no spec is installed; the common
	// production path is one atomic load and a branch.
	enabled atomic.Bool
	mu      sync.RWMutex
	rules   map[string]*rule
)

// Enable parses and installs a fault spec, replacing any previous one.
// An empty spec disables injection (like Disable).
func Enable(spec string) error {
	parsed, err := parse(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	rules = parsed
	mu.Unlock()
	enabled.Store(len(parsed) > 0)
	return nil
}

// Disable removes every armed point.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	rules = nil
	mu.Unlock()
}

// parse parses "point=mode[,k=v...]" rules separated by ';'.
func parse(spec string) (map[string]*rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, p := range Catalog() {
		known[p] = true
	}
	out := make(map[string]*rule)
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		point, rest, ok := strings.Cut(item, "=")
		point = strings.TrimSpace(point)
		if !ok || point == "" {
			return nil, fmt.Errorf("faultinject: bad rule %q, want point=mode[,opts]", item)
		}
		if !known[point] {
			return nil, fmt.Errorf("faultinject: unknown point %q (catalog: %s)", point, strings.Join(Catalog(), " "))
		}
		parts := strings.Split(rest, ",")
		r := &rule{point: point, delay: 10 * time.Millisecond, after: 1, prob: 1}
		switch strings.TrimSpace(parts[0]) {
		case "error":
			r.mode = ModeError
		case "panic":
			r.mode = ModePanic
		case "slow":
			r.mode = ModeSlow
		default:
			return nil, fmt.Errorf("faultinject: unknown mode %q for %s (error|panic|slow)", parts[0], point)
		}
		var seed int64 = 1
		for _, opt := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: bad option %q for %s", opt, point)
			}
			var err error
			switch k {
			case "delay":
				r.delay, err = time.ParseDuration(v)
			case "after":
				r.after, err = strconv.ParseInt(v, 10, 64)
			case "times":
				r.times, err = strconv.ParseInt(v, 10, 64)
			case "p":
				r.prob, err = strconv.ParseFloat(v, 64)
			case "seed":
				seed, err = strconv.ParseInt(v, 10, 64)
			default:
				return nil, fmt.Errorf("faultinject: unknown option %q for %s", k, point)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad value for %s.%s: %v", point, k, err)
			}
		}
		if r.after < 1 {
			r.after = 1
		}
		if r.prob < 1 {
			r.rng = rand.New(rand.NewSource(seed))
		}
		out[point] = r
	}
	return out, nil
}

// Hit is an injection point: it returns an error, panics, or sleeps when
// the point is armed and its rule fires, and is a near-free no-op
// otherwise. Call sites compile it in unconditionally.
func Hit(point string) error {
	if !enabled.Load() {
		return nil
	}
	mu.RLock()
	r := rules[point]
	mu.RUnlock()
	if r == nil {
		return nil
	}
	hit := r.hits.Add(1)
	if hit < r.after {
		return nil
	}
	if r.times > 0 && r.fired.Load() >= r.times {
		return nil
	}
	if r.rng != nil {
		r.rngMu.Lock()
		roll := r.rng.Float64()
		r.rngMu.Unlock()
		if roll >= r.prob {
			return nil
		}
	}
	r.fired.Add(1)
	switch r.mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", point))
	case ModeSlow:
		time.Sleep(r.delay)
		return nil
	default:
		return fmt.Errorf("%w at %s", ErrInjected, point)
	}
}

// Counts reports one point's hit/fire counters.
type Counts struct {
	// Hits counts Hit calls observed while the point was armed.
	Hits int64 `json:"hits"`
	// Fired counts hits that actually injected.
	Fired int64 `json:"fired"`
	// Mode is the armed mode.
	Mode string `json:"mode"`
}

// Stats returns the counters of every armed point.
func Stats() map[string]Counts {
	mu.RLock()
	defer mu.RUnlock()
	out := make(map[string]Counts, len(rules))
	for p, r := range rules {
		out[p] = Counts{Hits: r.hits.Load(), Fired: r.fired.Load(), Mode: r.mode.String()}
	}
	return out
}

// Active reports whether any injection spec is installed.
func Active() bool { return enabled.Load() }
