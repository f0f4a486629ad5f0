// Command tlcserve serves XQuery over HTTP/JSON (see internal/service
// for the endpoints and their wire format):
//
//	tlcserve -addr :8080 -xmark 0.5
//	tlcserve -addr :8080 -load auction.xml=path/to/file.xml
//
//	curl -s localhost:8080/query -d '{"query": "FOR $p IN document(\"auction.xml\")//person RETURN $p/name"}'
//
// The server prints its listening address on stderr once it accepts
// connections and shuts down gracefully on SIGINT/SIGTERM, letting
// in-flight queries finish (they still respect their own deadlines).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"tlc"
	"tlc/internal/faultinject"
	"tlc/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "load a document at startup: name=path (comma separated for several)")
	xmarkFactor := flag.Float64("xmark", 0, "generate and load an XMark document at this factor as auction.xml")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently evaluating queries (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max queries waiting for an evaluation slot (0 = 2*max-concurrent)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query evaluation deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on request-supplied deadlines")
	cacheSize := flag.Int("cache-size", 128, "plan cache capacity in plans")
	parallel := flag.Int("parallel", 1, "default intra-query parallelism: 1 = serial, 0 = GOMAXPROCS")
	shards := flag.Int("shards", 0, "store shard count (0 = GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "snapshot directory: open it if it holds a snapshot (mmap fast start; overrides -shards), otherwise write one there after the startup loads")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (heap, cpu, goroutine profiles)")
	maxNodes := flag.Int64("max-nodes", 0, "per-query witness-node budget; exceeding aborts the query with 422 (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "per-query arena memory budget in bytes (0 = unlimited)")
	maxResult := flag.Int64("max-result", 0, "per-query cap on any intermediate sequence's cardinality (0 = unlimited)")
	maxWall := flag.Duration("max-wall", 0, "per-query wall-time budget, reported as 422 budget_exceeded rather than 504 (0 = unlimited)")
	walDir := flag.String("wal", "", "write-ahead log directory: replay it at startup (after any -snapshot open), then log every update durably before acknowledging")
	fsync := flag.String("fsync", "always", "WAL durability policy: always (fsync per update), batch (group commit), off")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline for in-flight requests on SIGTERM/SIGINT")
	updateRetries := flag.Int("update-retries", 3, "attempts per /update when the commit keeps losing its race (jittered backoff between attempts)")
	faults := flag.String("faults", os.Getenv("TLC_FAULTS"),
		"fault-injection spec, e.g. 'store.load=error;physical.valuejoin=panic,after=2' (default $TLC_FAULTS; testing only)")
	flag.Parse()
	if *parallel == 0 {
		*parallel = -1 // explicit "use GOMAXPROCS"
	}
	if *faults != "" {
		if err := faultinject.Enable(*faults); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tlcserve: FAULT INJECTION ARMED: %s\n", *faults)
	}

	var db *tlc.Database
	writeSnap := false
	if *snapshot != "" && tlc.SnapshotExists(*snapshot) {
		var err error
		if db, err = tlc.OpenSnapshot(*snapshot); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tlcserve: opened snapshot %s (%d documents, %d shards)\n",
			*snapshot, len(db.Documents()), db.NumShards())
	} else {
		db = tlc.Open(tlc.WithShards(*shards))
		writeSnap = *snapshot != ""
	}
	defer db.Close()
	if *xmarkFactor > 0 {
		// A reopened snapshot already holds auction.xml; reloading it would
		// fatal on the duplicate and, worse, reset state the WAL is about to
		// replay on top of. Keep -xmark in the restart command line harmless.
		if slices.Contains(db.Documents(), "auction.xml") {
			fmt.Fprintf(os.Stderr, "tlcserve: auction.xml already in snapshot, skipping -xmark load\n")
		} else {
			if err := db.LoadXMark("auction.xml", *xmarkFactor); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tlcserve: loaded XMark factor %g as auction.xml\n", *xmarkFactor)
		}
	}
	if *load != "" {
		for _, spec := range strings.Split(*load, ",") {
			name, path, ok := strings.Cut(spec, "=")
			if !ok {
				fatal(fmt.Errorf("bad -load spec %q, want name=path", spec))
			}
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			err = db.LoadXML(name, f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tlcserve: loaded %s\n", name)
		}
	}

	if writeSnap {
		info, err := db.Snapshot(*snapshot)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tlcserve: wrote snapshot %s (%d documents, %d bytes)\n",
			info.Dir, info.Docs, info.Bytes)
	}

	srv, err := service.New(service.Config{
		DB:             db,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheSize:      *cacheSize,
		Parallelism:    *parallel,
		UpdateRetries:  *updateRetries,
		Limits: tlc.Limits{
			MaxArenaNodes: *maxNodes,
			MaxArenaBytes: *maxBytes,
			MaxResultCard: *maxResult,
			MaxWall:       *maxWall,
		},
	})
	if err != nil {
		fatal(err)
	}
	if *walDir != "" {
		// Mark the server not-ready before the listener exists, so the
		// first /readyz a load balancer sees during replay is already 503.
		srv.BeginRecovery()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	handler := srv.Handler()
	if *pprofOn {
		// Mount the profiler next to the service endpoints rather than
		// blank-importing net/http/pprof, which would register on
		// http.DefaultServeMux and expose profiles unconditionally.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(os.Stderr, "tlcserve: pprof enabled on /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}
	fmt.Fprintf(os.Stderr, "tlcserve: listening on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	if *walDir != "" {
		// Replay while the listener is already accepting: liveness and
		// read-only endpoints answer during recovery, /readyz reports 503
		// with live progress, and writes shed until EndRecovery.
		gc0, alloc0 := gcSample()
		stats, err := db.AttachWAL(tlc.WALOptions{
			Dir:        *walDir,
			Fsync:      *fsync,
			OnProgress: srv.RecoveryProgress,
		})
		if err != nil {
			fatal(err)
		}
		srv.EndRecovery(stats.Applied, stats.Skipped, stats.Duration)
		// What the replay cost the collector (the whole process over that
		// interval, so queries answered during recovery are in it).
		gc1, alloc1 := gcSample()
		perRecord := 0.0
		if stats.Applied > 0 {
			perRecord = float64(stats.Duration.Microseconds()) / float64(stats.Applied)
		}
		fmt.Fprintf(os.Stderr, "tlcserve: wal %s ready (fsync=%s): replayed %d updates, skipped %d, %d torn repairs, %v, %d gc cycles, %.1f MB allocated, %.0f µs/record\n",
			*walDir, *fsync, stats.Applied, stats.Skipped, stats.TornRepairs, stats.Duration.Round(time.Millisecond),
			gc1-gc0, float64(alloc1-alloc0)/(1<<20), perRecord)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tlcserve: %v, draining\n", s)
		// Stop admitting (readyz flips to 503, writes shed), drain
		// in-flight requests with a deadline, then fsync and close the
		// WAL via db.Close (the deferred close) before exiting 0. A
		// second signal aborts immediately.
		srv.SetDraining()
		go func() {
			s2 := <-sig
			fmt.Fprintf(os.Stderr, "tlcserve: %v again, aborting\n", s2)
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tlcserve: drain incomplete: %v\n", err)
		}
		if err := db.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "tlcserve: drained, wal closed, exiting")
	}
}

// gcSample reads the collector's cycle count and the bytes allocated so far
// from runtime/metrics, which — unlike ReadMemStats — stops nothing.
func gcSample() (cycles, allocated uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlcserve:", err)
	os.Exit(1)
}
