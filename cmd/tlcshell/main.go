// Command tlcshell loads XML documents and evaluates XQuery expressions
// against them interactively (or from -query):
//
//	tlcshell -load auction.xml=path/to/file.xml
//	tlcshell -xmark 0.1 -query 'FOR $p IN document("auction.xml")//person RETURN $p/name'
//	tlcshell -xmark 0.1 -engine TAX -explain -query '...'
//
// Without -query the shell reads queries from stdin, terminated by a line
// containing only ";". The special commands ".explain on|off", ".engine
// <name>", ".plan <query>", ".profile <query>", ".update <doc> <op>
// <target> ..." and ".stats" adjust or inspect the session.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tlc"
	"tlc/internal/failure"
	"tlc/internal/faultinject"
	"tlc/internal/governor"
	"tlc/internal/plancache"
)

func main() {
	load := flag.String("load", "", "load a document: name=path (comma separated for several)")
	xmarkFactor := flag.Float64("xmark", 0, "generate and load an XMark document at this factor as auction.xml")
	engineName := flag.String("engine", "TLC", "engine: TLC, OPT, GTP, TAX, NAV")
	query := flag.String("query", "", "evaluate one query and exit")
	explain := flag.Bool("explain", false, "print the evaluation plan before results")
	parallel := flag.Int("parallel", 1, "intra-query parallelism: 1 = serial, 0 = GOMAXPROCS")
	shards := flag.Int("shards", 0, "store shard count (0 = GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "snapshot directory: open it if it holds a snapshot (mmap fast start; overrides -shards), otherwise write one there after the startup loads")
	faults := flag.String("faults", os.Getenv("TLC_FAULTS"),
		"fault-injection spec, e.g. 'physical.matcher=error,p=0.1' (default $TLC_FAULTS; testing only)")
	flag.Parse()
	if *parallel == 0 {
		*parallel = -1 // explicit "use GOMAXPROCS"
	}
	if *faults != "" {
		if err := faultinject.Enable(*faults); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "FAULT INJECTION ARMED: %s\n", *faults)
	}

	var db *tlc.Database
	writeSnap := false
	if *snapshot != "" && tlc.SnapshotExists(*snapshot) {
		var err error
		if db, err = tlc.OpenSnapshot(*snapshot); err != nil {
			fatal(err)
		}
		defer db.Close()
		fmt.Fprintf(os.Stderr, "opened snapshot %s (%d documents, %d shards)\n",
			*snapshot, len(db.Documents()), db.NumShards())
	} else {
		db = tlc.Open(tlc.WithShards(*shards))
		writeSnap = *snapshot != ""
	}
	if *xmarkFactor > 0 {
		if err := db.LoadXMark("auction.xml", *xmarkFactor); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded XMark factor %g as auction.xml\n", *xmarkFactor)
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
			fmt.Fprintf(os.Stderr, "loaded %s\n", name)
		}
	}
	if len(db.Documents()) == 0 {
		fatal(fmt.Errorf("no documents loaded; use -load, -xmark or -snapshot"))
	}
	if writeSnap {
		info, err := db.Snapshot(*snapshot)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote snapshot %s (%d documents, %d bytes)\n",
			info.Dir, info.Docs, info.Bytes)
	}

	engine, ok := tlc.ParseEngine(*engineName)
	if !ok {
		fatal(fmt.Errorf("unknown engine %q", *engineName))
	}

	// The shell caches compiled plans like the query service does: re-running
	// a query (or tweaking only its WHERE constant back and forth) skips
	// recompilation, and .stats shows the hit/miss counters.
	cache := plancache.New(64)

	if *query != "" {
		if err := evalOne(db, cache, *query, engine, *explain, *parallel); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Fprintln(os.Stderr, `enter queries terminated by a line containing ";" (.help for commands)`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if buf.Len() == 0 && strings.HasPrefix(line, ".") {
			switch {
			case line == ".help":
				fmt.Println(".engine TLC|OPT|GTP|TAX|NAV   switch engine\n.explain on|off               toggle plan printing\n.plan <query>                 print the planned operator tree (est= cardinalities)\n.profile <query>              EXPLAIN ANALYZE a one-line query (est vs actual, Q-error)\n.update <doc> <op> <target> [position] [fragment]\n                              apply a subtree update (op: insert|delete|replace;\n                              position: into|first|before|after, insert only)\n.stats                        show store access counters\n.quit                         exit")
			case strings.HasPrefix(line, ".engine "):
				if e, ok := tlc.ParseEngine(strings.TrimSpace(line[8:])); ok {
					engine = e
					fmt.Fprintf(os.Stderr, "engine = %v\n", engine)
				} else {
					fmt.Fprintln(os.Stderr, "unknown engine")
				}
			case line == ".explain on":
				*explain = true
			case line == ".explain off":
				*explain = false
			case strings.HasPrefix(line, ".update "):
				// .update <doc> <op> <target> [position] [fragment...]; the
				// fragment may contain spaces, so it is the untokenized rest.
				if err := runUpdate(db, strings.TrimSpace(line[8:])); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
			case line == ".stats":
				fmt.Println(db.Stats())
				cs := cache.Stats()
				fmt.Printf("plan cache: %d/%d entries, %d hits (%d exact, %d containment), %d misses, %d evictions, %d invalidations, %d containment probes\n",
					cs.Size, cs.Capacity, cs.Hits, cs.HitsExact, cs.HitsContainment, cs.Misses, cs.Evictions, cs.Invalidations, cs.ContainmentProbes)
				ut := tlc.UpdateCounters()
				fmt.Printf("updates: total=%d conflicts=%d stats_deltas=%d versions_live=%d update_gen=%d\n",
					ut.Updates, ut.Conflicts, ut.StatsDeltas, db.VersionsLive(), db.UpdateGeneration())
				for i, d := range db.DictionaryStats() {
					fmt.Printf("shard %d dictionaries: dict_tag_strings=%d dict_value_strings=%d dict_value_live=%d\n",
						i, d.TagStrings, d.ValueStrings, d.ValueLive)
				}
				kills := governor.KillTotals()
				fmt.Printf("governor kills:")
				for _, res := range governor.Resources() {
					fmt.Printf(" %s=%d", res, kills[res])
				}
				fmt.Printf("\npanics recovered: %d\n", failure.PanicsRecovered())
				if faultinject.Active() {
					for point, c := range faultinject.Stats() {
						fmt.Printf("fault %s: mode=%s hits=%d fired=%d\n", point, c.Mode, c.Hits, c.Fired)
					}
				}
			case strings.HasPrefix(line, ".plan "):
				// .plan <query...> on one line: the planned operator tree
				// with the planner's cardinality estimates (est=N).
				out, err := db.Explain(strings.TrimSpace(line[6:]), tlc.WithEngine(engine))
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				} else {
					fmt.Print(out)
				}
			case strings.HasPrefix(line, ".profile "):
				// .profile <query...> on one line
				out, err := db.Profile(strings.TrimSpace(line[9:]), tlc.WithEngine(engine))
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				} else {
					fmt.Print(out)
				}
			case line == ".quit":
				return
			default:
				fmt.Fprintln(os.Stderr, "unknown command; .help")
			}
			continue
		}
		if strings.TrimSpace(line) == ";" {
			if err := evalOne(db, cache, buf.String(), engine, *explain, *parallel); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			buf.Reset()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
}

// runUpdate parses and applies one ".update <doc> <op> <target>
// [position] [fragment...]" command. The fragment is the untokenized rest
// of the line so it may contain spaces.
func runUpdate(db *tlc.Database, argstr string) error {
	fields := strings.Fields(argstr)
	if len(fields) < 3 {
		return fmt.Errorf("usage: .update <doc> insert|delete|replace <target> [into|first|before|after] [fragment]")
	}
	doc, opName, target := fields[0], fields[1], fields[2]
	op, err := tlc.ParseUpdateKind(opName)
	if err != nil {
		return err
	}
	// Strip the three leading tokens off the raw string to keep the
	// fragment byte-exact.
	rest := argstr
	for i := 0; i < 3; i++ {
		rest = strings.TrimLeft(rest, " \t")
		if j := strings.IndexAny(rest, " \t"); j >= 0 {
			rest = rest[j:]
		} else {
			rest = ""
		}
	}
	rest = strings.TrimSpace(rest)
	position := ""
	if f := strings.Fields(rest); len(f) > 0 {
		switch f[0] {
		case "into", "first", "before", "after", "append":
			position = f[0]
			rest = strings.TrimSpace(strings.TrimPrefix(rest, f[0]))
		}
	}
	start := time.Now()
	res, err := db.Update(tlc.UpdateRequest{Doc: doc, Op: op, Target: target, Position: position, Fragment: rest})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s v%d: +%d/-%d nodes (%d total), %d stats deltas, %d conflicts in %.3fs\n",
		res.Doc, res.Version, res.NodesAdded, res.NodesRemoved, res.Nodes, res.StatsDeltas, res.Conflicts,
		time.Since(start).Seconds())
	return nil
}

func evalOne(db *tlc.Database, cache *plancache.Cache, text string, engine tlc.Engine, explain bool, parallel int) error {
	if explain {
		plan, err := db.Explain(text, tlc.WithEngine(engine))
		if err != nil {
			return err
		}
		fmt.Println("--- plan ---")
		fmt.Print(plan)
		fmt.Println("--- result ---")
	}
	db.ResetStats()
	start := time.Now()
	prep, hit, err := cache.Load(context.Background(), db, plancache.Key{
		Query: text, Engine: engine, Parallelism: parallel,
	})
	if err != nil {
		return err
	}
	res, err := db.Run(prep)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Println(res.XML())
	plan := "compiled"
	if hit {
		plan = "cached plan"
	}
	fmt.Fprintf(os.Stderr, "%d trees in %.3fs under %v (%s) [%s]\n",
		res.Len(), elapsed.Seconds(), engine, plan, db.Stats())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlcshell:", err)
	os.Exit(1)
}
