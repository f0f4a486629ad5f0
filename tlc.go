// Package tlc is a native XML query engine implementing the TLC algebra
// ("Tree Logical Classes for Efficient Evaluation of XQuery", SIGMOD 2004)
// — the algebra used in the TIMBER system. It evaluates a substantial
// FLWOR fragment of XQuery over in-memory XML documents by compiling
// queries to annotated-pattern-tree plans executed with structural joins,
// nest-joins and logical-class bookkeeping.
//
// Besides the TLC engine (with and without the Section 4 redundancy
// rewrites), the package ships three reference engines used by the paper's
// evaluation — TAX-style plans, GTP-style plans, and a navigational
// interpreter — all running against the same store, which makes the
// paper's Figure 15/16/17 comparisons reproducible.
//
// Basic usage:
//
//	db := tlc.Open()
//	db.LoadXMLString("auction.xml", xmlText)
//	res, err := db.Query(`FOR $p IN document("auction.xml")//person
//	                      WHERE $p/age > 25 RETURN $p/name`)
//	fmt.Println(res.XML())
package tlc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tlc/internal/algebra"
	"tlc/internal/baselines/gtp"
	"tlc/internal/baselines/nav"
	"tlc/internal/baselines/tax"
	"tlc/internal/faultinject"
	"tlc/internal/governor"
	"tlc/internal/mutate"
	"tlc/internal/rewrite"
	"tlc/internal/seq"
	"tlc/internal/store"
	"tlc/internal/translate"
	"tlc/internal/wal"
	"tlc/internal/xmark"
	"tlc/internal/xquery"
)

// Engine selects the evaluation strategy.
type Engine int

// Available engines.
const (
	// TLC compiles to TLC algebra plans (annotated pattern trees,
	// nest-joins, logical classes). This is the default.
	TLC Engine = iota
	// TLCOpt is TLC plus the Section 4 rewrites (pattern tree reuse,
	// Flatten, Shadow/Illuminate) — the paper's "OPT" configuration.
	TLCOpt
	// GTP evaluates generalized-tree-pattern plans: pattern reuse but flat
	// matches plus a grouping procedure instead of nest-joins.
	GTP
	// TAX evaluates TAX-style plans: flat matches, grouping, early
	// materialization of bound variables, no pattern reuse, and an
	// identity join stitching the RETURN paths back on.
	TAX
	// Nav is the navigational interpreter: no indexes, no joins, pure
	// tree walking.
	Nav
)

// String returns the engine name used in benchmark tables.
func (e Engine) String() string {
	switch e {
	case TLC:
		return "TLC"
	case TLCOpt:
		return "OPT"
	case GTP:
		return "GTP"
	case TAX:
		return "TAX"
	case Nav:
		return "NAV"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Engines lists every engine in the order of the Figure 15 columns.
func Engines() []Engine { return []Engine{TLC, GTP, TAX, Nav} }

// ParseEngine maps an engine name (as printed by Engine.String, case
// insensitive; "TLCOPT" is accepted for OPT) back to the engine. The shell
// and the query service share this mapping.
func ParseEngine(s string) (Engine, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "TLC", "":
		return TLC, true
	case "OPT", "TLCOPT":
		return TLCOpt, true
	case "GTP":
		return GTP, true
	case "TAX":
		return TAX, true
	case "NAV":
		return Nav, true
	default:
		return 0, false
	}
}

// Database is a collection of loaded XML documents with the indexes the
// engines use (element tag index and content value index). Documents are
// multi-versioned: a load adds a document at version 1, and Update produces
// a new version of one document with copy-on-write semantics. Each query
// pins the version set current when it starts and runs snapshot-isolated
// to completion, so queries never block on loads or writers and neither
// waits for readers; a query that overlaps a load or an update sees the
// set it pinned. That is the only isolation mechanism. A compiled plan
// depends on the query text, the engine and the limits alone, never on the
// documents, so no load or update can make it stale. The store's access
// counters are atomic, so concurrent Run calls interleave counter updates
// rather than corrupt them. Each query is evaluated serially, by one
// goroutine, as the paper's engine did.
type Database struct {
	st *store.Store
	// wal, when AttachWAL has run, is the durable write-ahead log every
	// commit appends to before its directory swap; walReplay records what
	// recovery did at attach time.
	wal       *wal.Log
	walReplay WALReplayStats
}

// OpenOption configures a database at Open time. There is nothing left to
// configure: Open ignores every OpenOption.
type OpenOption struct{}

// WithShards is ignored: the store is one partition. It remains only
// because bench/layers.go:429 and bench/oracle.go:20 pass it; the next
// benchmark change deletes it.
func WithShards(n int) OpenOption { return OpenOption{} }

// Open returns an empty database.
func Open(...OpenOption) *Database { return &Database{st: store.New()} }

// LoadXML parses and indexes an XML document under the given name (the
// name used in document("...") references). Loads may run concurrently
// with queries, updates and other loads: the document is indexed off to
// the side and published by one atomic directory swap, so a query sees it
// entirely or (if it pinned earlier) not at all.
func (db *Database) LoadXML(name string, r io.Reader) error {
	_, err := db.st.LoadXML(name, r)
	return err
}

// LoadXMLString is LoadXML over a string.
func (db *Database) LoadXMLString(name, xml string) error {
	return db.LoadXML(name, strings.NewReader(xml))
}

// LoadXMark generates and loads an XMark-like auction document at the
// given scale factor (see the xmark package for the populations).
func (db *Database) LoadXMark(name string, factor float64) error {
	_, err := db.st.Load(xmark.Generate(name, factor))
	return err
}

// Documents returns the loaded document names.
func (db *Database) Documents() []string { return db.st.Names() }

// UpdateRequest is one subtree update against one document: an insert,
// delete or replace located by an absolute path (`/site/people/person[2]`,
// attribute steps like `@id` last) or a raw preorder ordinal (`#17`). See
// the mutate package for the full target and position semantics.
type UpdateRequest = mutate.Request

// UpdateResult reports what an update committed: the new document
// version and node deltas.
type UpdateResult = mutate.Result

// UpdateKind is the update operation: UpdateInsert, UpdateDelete or
// UpdateReplace.
type UpdateKind = mutate.Kind

// Update operations.
const (
	UpdateInsert  = mutate.Insert
	UpdateDelete  = mutate.Delete
	UpdateReplace = mutate.Replace
)

// Insert positions for UpdateRequest.Position.
const (
	UpdateInto   = mutate.PosInto
	UpdateFirst  = mutate.PosFirst
	UpdateBefore = mutate.PosBefore
	UpdateAfter  = mutate.PosAfter
)

// ParseUpdateKind maps "insert" | "delete" | "replace" to its UpdateKind.
func ParseUpdateKind(s string) (UpdateKind, error) { return mutate.ParseKind(s) }

// Typed update errors, matchable with errors.Is.
var (
	// ErrUpdateConflict reports an update that lost the optimistic
	// concurrency check to concurrent writers even after retries.
	ErrUpdateConflict = store.ErrVersionConflict
	// ErrConcurrentMutation reports an operation that cannot run while an
	// update is in flight (loading a snapshot into the database).
	ErrConcurrentMutation = store.ErrConcurrentMutation
	// ErrUnknownDocument reports an update naming a document that is not
	// loaded.
	ErrUnknownDocument = mutate.ErrUnknownDocument
	// ErrBadUpdateTarget reports an update target that does not resolve to
	// a node the operation can apply to.
	ErrBadUpdateTarget = mutate.ErrBadTarget
	// ErrBadUpdateRequest reports a structurally invalid update request.
	ErrBadUpdateRequest = mutate.ErrBadRequest
)

// Update applies one subtree update. See UpdateContext.
func (db *Database) Update(req UpdateRequest, opts ...Option) (UpdateResult, error) {
	return db.UpdateContext(context.Background(), req, opts...)
}

// UpdateContext applies one subtree update under ctx. The writer builds
// the mutated document as a complete new version off to the side —
// incrementally carrying the tag/value indexes forward — and commits it
// with one copy-on-write directory swap, so concurrent queries never
// block: queries started before the commit (and Results they returned)
// keep observing the old version, queries started after it observe the
// new one. Resource budget options (WithLimits and friends) govern the
// write cost with the same taxonomy as queries; engine options are
// ignored. On a conflict with a concurrent update the target is
// re-resolved and retried a bounded number of times before
// ErrUpdateConflict is returned.
func (db *Database) UpdateContext(ctx context.Context, req UpdateRequest, opts ...Option) (UpdateResult, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx = cfg.limits.govern(ctx)
	return mutate.Apply(ctx, db.st, req)
}

// UpdateTotals is a snapshot of the process-wide update counters.
type UpdateTotals = mutate.Totals

// UpdateCounters returns the process-wide update counters (updates
// committed, conflicts hit).
func UpdateCounters() UpdateTotals { return mutate.Counters() }

// DocumentVersion returns the MVCC version of a document (fresh loads are
// version 1; every committed update increments it) and whether it is
// loaded; a name that is not loaded reports version 0.
func (db *Database) DocumentVersion(name string) (uint64, bool) { return db.st.DocVersion(name) }

// UpdateGeneration returns the number of updates committed into the
// database. A snapshot written earlier is stale relative to this database
// exactly when the update generation recorded in its manifest is smaller.
func (db *Database) UpdateGeneration() uint64 { return db.st.UpdateGeneration() }

// VersionsLive returns the number of document versions currently
// reachable: the live version of every document plus superseded versions
// still pinned by running queries or held results (reclaimed by the
// garbage collector once the last reference drops).
func (db *Database) VersionsLive() int64 { return db.st.VersionsLive() }

// DictionaryStats returns the dictionary gauges: strings interned
// (dictionaries are append-only, so this includes what updates brought and
// later removed) against values the documents hold now. It never waits for
// a writer.
func (db *Database) DictionaryStats() store.DictStats { return db.st.DictStats() }

// SnapshotInfo reports what a Snapshot call wrote: directory, total
// bytes, documents captured and the update generation.
type SnapshotInfo = store.SnapshotInfo

// Typed snapshot errors, matchable with errors.Is. Every way a snapshot
// file can be unusable maps to exactly one of these — opening a damaged
// or incompatible snapshot returns an error, never a panic.
var (
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version (or with the opposite byte order).
	ErrSnapshotVersion = store.ErrSnapshotVersion
	// ErrSnapshotChecksum reports payload bytes that fail the stored CRC.
	ErrSnapshotChecksum = store.ErrSnapshotChecksum
	// ErrSnapshotCorrupt reports structural damage: truncation, bad magic,
	// out-of-bounds sections or invalid node relations.
	ErrSnapshotCorrupt = store.ErrSnapshotCorrupt
	// ErrSnapshotMismatch reports a snapshot that names a document the
	// database it is being loaded into already holds.
	ErrSnapshotMismatch = store.ErrSnapshotMismatch
)

// Snapshot writes the database's current contents to dir as a versioned,
// checksummed columnar snapshot: one data file plus a manifest, each
// written atomically (temp file + rename, manifest last,
// so an interrupted snapshot leaves no readable-but-partial state).
// Snapshot may run concurrently with queries; it captures the document
// set current when it starts.
//
// With a WAL attached, Snapshot is the durable checkpoint protocol:
// rotate the log (sealing everything up to now), write the snapshot, then
// truncate the sealed segments the snapshot covers. A crash between any
// two steps only leaves extra log to replay — never a gap.
func (db *Database) Snapshot(dir string) (SnapshotInfo, error) {
	if db.wal == nil {
		return db.st.WriteSnapshot(dir)
	}
	if err := db.wal.Rotate(); err != nil {
		return SnapshotInfo{Dir: dir}, fmt.Errorf("tlc: snapshot checkpoint: %w", err)
	}
	info, err := db.st.WriteSnapshot(dir)
	if err != nil {
		return info, err
	}
	if _, err := db.wal.TruncateThrough(info.UpdateGen); err != nil {
		// The snapshot itself is complete and valid; the stale sealed
		// segments merely survive until the next checkpoint removes them.
		return info, nil
	}
	return info, nil
}

// LoadSnapshot loads every document of the snapshot in dir into the
// database, mapping the data file read-only (mmap where the platform
// supports it) — column data, dictionary strings and document names are
// served from the mapped region without copying. Document names must not
// collide with already-loaded documents, and the load is refused with
// ErrConcurrentMutation while an update is in flight.
func (db *Database) LoadSnapshot(dir string) error {
	err := db.st.LoadSnapshot(dir)
	if err == nil && db.wal != nil {
		// The load may have jumped the update generation past the log's
		// tail (the snapshot was written by a store with more committed
		// updates). Seal the gap so the next commit appends at the new
		// generation in a fresh segment.
		if g := db.st.UpdateGeneration(); g > db.wal.LastSeq() {
			db.wal.RotateTo(g)
		}
	}
	return err
}

// SnapshotExists reports whether dir holds a (complete) snapshot — the
// manifest is written last, so its presence is the completion marker.
func SnapshotExists(dir string) bool { return store.SnapshotExists(dir) }

// OpenSnapshot opens the snapshot in dir as a new database. This is the
// cold-start fast path: instead of re-parsing XML, the data file is
// validated and mapped, and queries
// read columns and interned strings straight from the mapping. Call Close
// when done to unmap.
func OpenSnapshot(dir string) (*Database, error) {
	st, err := store.OpenSnapshot(dir)
	if err != nil {
		return nil, err
	}
	return &Database{st: st}, nil
}

// Close releases resources held by the database: the write-ahead log (any
// pending group-commit batch is fsynced first) and the snapshot file
// mappings. After Close, results and documents backed by a snapshot must
// no longer be accessed; commits against a closed WAL fail rather than
// going unlogged. Databases that never loaded a snapshot and never
// attached a WAL need not be closed.
func (db *Database) Close() error {
	var firstErr error
	if db.wal != nil {
		// The commit hook stays installed: a commit racing Close fails
		// with ErrClosed instead of silently skipping durability.
		firstErr = db.wal.Close()
	}
	if err := db.st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// WAL attachment and recovery.

// Typed durability errors.
var (
	// ErrWALCorrupt reports mid-log corruption found while opening or
	// replaying the write-ahead log: damage the torn-tail rule cannot
	// repair (a bad record with valid data after it, or any damage in a
	// sealed segment). Recovery refuses to continue past it — silently
	// skipping a record would replay a divergent history.
	ErrWALCorrupt = wal.ErrCorrupt
	// ErrWALReplay reports a WAL record that re-applied with a different
	// outcome than its original commit (or failed to apply at all) —
	// version skew or a non-deterministic update path, not file damage.
	ErrWALReplay = errors.New("tlc: wal replay failed")
	// ErrDurability reports a commit vetoed because its WAL record could
	// not be persisted; the store is unchanged and the client must treat
	// the update as not applied.
	ErrDurability = store.ErrDurability
)

// walReplayError carries both the ErrWALReplay marker and the underlying
// cause through errors.Is/As.
type walReplayError struct{ cause error }

func (e *walReplayError) Error() string {
	return fmt.Sprintf("%v: %v", ErrWALReplay, e.cause)
}
func (e *walReplayError) Unwrap() []error { return []error{ErrWALReplay, e.cause} }

// WALOptions configures AttachWAL.
type WALOptions struct {
	// Dir is the log directory (created if missing).
	Dir string
	// Fsync selects the durability policy: "always" (default — fsync
	// inside every commit), "batch" (group commit), or "off".
	Fsync string
	// BatchRecords and BatchDelay tune group commit ("batch" only):
	// a pending batch is fsynced when it reaches BatchRecords appends
	// (default 32) or BatchDelay after its first (default 2ms).
	BatchRecords int
	BatchDelay   time.Duration
	// OnProgress, when set, is called after each replayed record with the
	// running applied/skipped counts — the hook the service uses to expose
	// recovery progress while /readyz reports "recovering".
	OnProgress func(applied, skipped int)
}

// WALReplayStats summarizes what AttachWAL's recovery pass did.
type WALReplayStats struct {
	// Applied is the number of records re-applied through the ordinary
	// update path; Skipped is the number at or below the store's update
	// generation (already covered by the snapshot that was opened).
	Applied, Skipped int
	// TornRepairs counts torn tails truncated while opening the log.
	TornRepairs int64
	// LastSeq is the log's newest sequence number after recovery.
	LastSeq uint64
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// AttachWAL opens (creating if needed) the write-ahead log in o.Dir,
// replays every record newer than the database's update generation —
// for a snapshot-opened database, the generation its manifest records — and
// installs the log as the store's commit hook: from then on every update
// is appended and (per the fsync policy) synced before its directory swap
// publishes it. Replay resolves and validates each record exactly as live
// traffic does, but splices it into a version private to the replay
// (mutate.Replay): every record must follow the sequence numbers before it,
// the touched documents are published together, in one directory swap, when
// the log is exhausted, and the update generation then equals the last
// record's sequence number — so recovery reproduces the pre-crash store
// byte-for-byte, a query running during it reads the state the database was
// opened with, and a replay that fails — also because a document changed
// under it — installs nothing: no document version, no generation, no log. A
// torn tail is repaired by truncation (counted in the returned stats);
// mid-log corruption aborts with ErrWALCorrupt, a record that does not
// re-apply with ErrWALReplay.
func (db *Database) AttachWAL(o WALOptions) (WALReplayStats, error) {
	var stats WALReplayStats
	if db.wal != nil {
		return stats, fmt.Errorf("tlc: a WAL is already attached")
	}
	if o.Dir == "" {
		return stats, fmt.Errorf("tlc: AttachWAL needs a directory")
	}
	policy, err := wal.ParsePolicy(o.Fsync)
	if err != nil {
		return stats, err
	}
	lg, err := wal.Open(o.Dir, wal.Options{Policy: policy, BatchRecords: o.BatchRecords, BatchDelay: o.BatchDelay})
	if err != nil {
		return stats, err
	}
	start := time.Now()
	rp := mutate.NewReplay(db.st)
	defer rp.Close()
	nApplied, nSkipped := 0, 0
	_, nSkipped, err = lg.Replay(db.st.UpdateGeneration(), func(rec wal.Record) error {
		if err := faultinject.Hit(faultinject.PointRecoverReplay); err != nil {
			return err
		}
		req, err := mutate.DecodeRequest(rec.Payload)
		if err != nil {
			return err
		}
		if _, err := rp.Apply(context.Background(), rec.Seq, req); err != nil {
			return err
		}
		nApplied++
		if o.OnProgress != nil {
			o.OnProgress(nApplied, nSkipped)
		}
		return nil
	})
	if err == nil {
		err = rp.Publish()
	}
	stats.Applied, stats.Skipped = nApplied, nSkipped
	if err != nil {
		lg.Close()
		if errors.Is(err, ErrWALCorrupt) {
			return stats, err
		}
		return stats, &walReplayError{cause: err}
	}
	// If the store is ahead of the log (snapshot newer than every record),
	// seal the gap so the next commit appends contiguously.
	if g := db.st.UpdateGeneration(); g > lg.LastSeq() {
		if err := lg.RotateTo(g); err != nil {
			lg.Close()
			return stats, err
		}
	}
	stats.TornRepairs = lg.Stats().TornRepairs
	stats.LastSeq = lg.LastSeq()
	stats.Duration = time.Since(start)
	db.wal = lg
	db.walReplay = stats
	db.st.SetCommitLog(func(seq uint64, payload []byte) error {
		return lg.Append(seq, payload)
	})
	return stats, nil
}

// WALStats returns the attached log's counters plus the recovery stats
// from attach time; ok is false when no WAL is attached.
func (db *Database) WALStats() (s wal.Stats, replay WALReplayStats, ok bool) {
	if db.wal == nil {
		return s, replay, false
	}
	return db.wal.Stats(), db.walReplay, true
}

// SyncWAL forces any pending group-commit batch to durable storage (a
// no-op without an attached WAL or with nothing pending).
func (db *Database) SyncWAL() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Sync()
}

// MappedBytes returns the total size of the snapshot file mappings the
// database currently holds.
func (db *Database) MappedBytes() int64 { return db.st.MappedBytes() }

// Stats returns the store access counters accumulated since the last
// ResetStats.
func (db *Database) Stats() store.Stats { return db.st.Snapshot() }

// ResetStats zeroes the store access counters.
func (db *Database) ResetStats() { db.st.ResetStats() }

// dbStore exposes the underlying store to same-package benchmarks.
func dbStore(db *Database) *store.Store { return db.st }

// Limits is a per-query resource budget. Zero fields are unlimited; the
// zero value disables governance (no per-run enforcement cost). Exceeding
// any budget aborts that query only, with an error that errors.As-matches
// *BudgetError — the process and concurrent queries are unaffected.
type Limits struct {
	// MaxArenaNodes caps witness nodes allocated from the run's arena —
	// the memory intermediate results are built from. Enforced at slab
	// (512-node) granularity.
	MaxArenaNodes int64
	// MaxArenaBytes caps the arena memory in bytes backing those nodes.
	MaxArenaBytes int64
	// MaxResultCard caps the cardinality of any intermediate operator
	// output sequence — the blowup site of pattern matching and joins.
	MaxResultCard int64
	// MaxWall caps evaluation wall-clock time. Unlike a context deadline
	// it reports as a *BudgetError (policy), not DeadlineExceeded
	// (infrastructure).
	MaxWall time.Duration
}

// govern wraps ctx with a fresh governor enforcing l, or returns ctx
// unchanged when no limit is set. Each run gets its own governor, so a
// shared Prepared budgets every concurrent run independently.
func (l Limits) govern(ctx context.Context) context.Context {
	g := governor.New(governor.Limits{
		MaxArenaNodes: l.MaxArenaNodes,
		MaxArenaBytes: l.MaxArenaBytes,
		MaxResultCard: l.MaxResultCard,
		MaxWall:       l.MaxWall,
	})
	if g == nil {
		return ctx
	}
	return governor.WithContext(ctx, g)
}

// BudgetError is the typed error a query aborted by its resource budget
// returns: which resource, the configured limit, and the observed value.
// Match with errors.As; the query service maps it to HTTP 422.
type BudgetError = governor.ErrBudgetExceeded

// Option configures a query.
type Option func(*queryConfig)

type queryConfig struct {
	engine Engine
	limits Limits
}

// WithEngine selects the evaluation engine for a query.
func WithEngine(e Engine) Option {
	return func(c *queryConfig) { c.engine = e }
}

// WithPlanner is ignored: every plan runs as translated. It remains only
// because bench/oracle.go:28 passes it; the next benchmark change deletes
// it.
func WithPlanner(on bool) Option { return func(*queryConfig) {} }

// WithParallelism is ignored: every query is evaluated serially. It remains
// only because bench/layers.go:775 and bench/oracle.go:28 pass it; the
// next benchmark change deletes it.
func WithParallelism(n int) Option { return func(*queryConfig) {} }

// WithLimits sets the query's resource budget (see Limits; zero fields
// are unlimited).
func WithLimits(l Limits) Option {
	return func(c *queryConfig) { c.limits = l }
}

// Prepared is a compiled query, reusable across executions (the figure
// benchmarks compile once and measure evaluation only, like the paper).
//
// A single Prepared is safe for concurrent Run/RunContext calls: the plan
// DAG is immutable after Compile (every rewrite mutates operators at
// compile time only; eval methods read operator fields and own their
// per-run input sequences), and all per-run state — matcher caches,
// memoization, the node arena — lives in the evaluation context created
// per call. Compiling reads no document, so a Prepared stays right across
// loads and updates. This is what lets a prepared-plan cache hand one
// Prepared to many concurrent requests, for as long as it keeps it.
type Prepared struct {
	engine Engine
	plan   algebra.Op // nil for Nav
	ast    *xquery.FLWOR
	limits Limits
}

// Engine returns the engine the query was compiled for.
func (p *Prepared) Engine() Engine { return p.engine }

// Limits returns the resource budget every Run of this prepared query is
// governed by (the zero Limits means ungoverned).
func (p *Prepared) Limits() Limits { return p.limits }

// Compile parses and translates a query for the selected engine.
func (db *Database) Compile(text string, opts ...Option) (*Prepared, error) {
	return db.CompileContext(context.Background(), text, opts...)
}

// CompileContext is Compile under a context.Context: compilation phases
// (parse, translate, rewrite) are separated by cancellation checks, so a
// disconnecting client does not pay for compiling a query nobody will run.
// Compilation itself is CPU-bounded per phase; the fine-grained cooperative
// checks live in evaluation. The plan is a function of the text, the
// engine and the limits: compiling reads no document.
func (db *Database) CompileContext(ctx context.Context, text string, opts ...Option) (*Prepared, error) {
	cfg := queryConfig{engine: TLC}
	for _, o := range opts {
		o(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ast, err := xquery.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &Prepared{engine: cfg.engine, ast: ast, limits: cfg.limits}
	switch cfg.engine {
	case Nav:
		return p, nil
	case TLC:
		res, err := translate.Translate(ast)
		if err != nil {
			return nil, err
		}
		p.plan = res.Plan
	case TLCOpt:
		res, err := translate.Translate(ast)
		if err != nil {
			return nil, err
		}
		p.plan, _ = rewrite.Optimize(res.Plan)
	case GTP:
		res, err := gtp.Translate(ast)
		if err != nil {
			return nil, err
		}
		p.plan = res.Plan
	case TAX:
		res, err := tax.Translate(ast)
		if err != nil {
			return nil, err
		}
		p.plan = res.Plan
	default:
		return nil, fmt.Errorf("tlc: unknown engine %v", cfg.engine)
	}
	return p, nil
}

// Run evaluates the prepared query.
func (db *Database) Run(p *Prepared) (*Result, error) {
	return db.RunContext(context.Background(), p)
}

// RunContext evaluates the prepared query under ctx. Cancelling ctx (or
// exceeding its deadline) stops the evaluation cooperatively — the
// evaluator checks between operators, and the physical
// operators poll inside their per-tree and join loops — and returns an
// error satisfying errors.Is(err, ctx.Err()). A Prepared may be shared by
// concurrent RunContext calls (see Prepared).
func (db *Database) RunContext(ctx context.Context, p *Prepared) (*Result, error) {
	ctx = p.limits.govern(ctx)
	// Pin the version set for the whole run: an update committing midway
	// cannot change what this query (or its returned Result) observes.
	st := db.st.Pin()
	var out seq.Seq
	var err error
	if p.engine == Nav {
		out, err = nav.RunContext(ctx, st, p.ast)
	} else {
		out, err = algebra.RunContext(ctx, st, p.plan)
	}
	if err != nil {
		return nil, err
	}
	return &Result{st: st, trees: out}, nil
}

// Query compiles and evaluates in one step.
func (db *Database) Query(text string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), text, opts...)
}

// QueryContext compiles and evaluates in one step under ctx (see
// RunContext for the cancellation contract).
func (db *Database) QueryContext(ctx context.Context, text string, opts ...Option) (*Result, error) {
	p, err := db.CompileContext(ctx, text, opts...)
	if err != nil {
		return nil, err
	}
	return db.RunContext(ctx, p)
}

// Explain returns the evaluation plan of a query as an indented operator
// tree (empty for the navigational engine, which interprets the AST).
func (db *Database) Explain(text string, opts ...Option) (string, error) {
	return db.ExplainContext(context.Background(), text, opts...)
}

// ExplainContext is Explain under a context.Context.
func (db *Database) ExplainContext(ctx context.Context, text string, opts ...Option) (string, error) {
	p, err := db.CompileContext(ctx, text, opts...)
	if err != nil {
		return "", err
	}
	if p.plan == nil {
		return "(navigational interpretation of the query AST)\n", nil
	}
	return algebra.Explain(p.plan), nil
}

// Profile evaluates a query while recording per-operator output
// cardinality, wall-clock time and store accesses, and returns the
// annotated plan tree — an EXPLAIN ANALYZE. The navigational engine has no
// plan and reports an error.
func (db *Database) Profile(text string, opts ...Option) (string, error) {
	return db.ProfileContext(context.Background(), text, opts...)
}

// ProfileContext is Profile under a context.Context; the profiled
// evaluation honors the same cancellation contract as RunContext.
func (db *Database) ProfileContext(ctx context.Context, text string, opts ...Option) (string, error) {
	p, err := db.CompileContext(ctx, text, opts...)
	if err != nil {
		return "", err
	}
	if p.plan == nil {
		return "", fmt.Errorf("tlc: the navigational engine has no plan to profile")
	}
	ctx = p.limits.govern(ctx)
	pr, err := algebra.Profile(algebra.NewContextFor(ctx, db.st.Pin()), p.plan)
	if err != nil {
		return "", err
	}
	return pr.String(), nil
}

// Result is an evaluated query result: a sequence of XML trees. It holds
// the store view pinned when its query started, so serializing a Result
// after later updates committed still renders the versions the query
// evaluated against.
type Result struct {
	st    *store.Store
	trees seq.Seq
}

// Len returns the number of result trees.
func (r *Result) Len() int { return len(r.trees) }

// XML serializes the whole result, one tree per line.
func (r *Result) XML() string { return r.trees.XML(r.st) }

// TreeXML serializes the i-th result tree.
func (r *Result) TreeXML(i int) string { return string(r.AppendTreeXML(nil, i)) }

// AppendTreeXML appends the serialization of the i-th result tree to dst
// and returns the extended slice; stored subtrees are written straight
// from the columns.
func (r *Result) AppendTreeXML(dst []byte, i int) []byte {
	return seq.AppendXML(dst, r.st, r.trees[i].Root)
}

// SortedXML returns the serialized trees sorted lexicographically — an
// order-insensitive form used to compare engine outputs.
func (r *Result) SortedXML() []string {
	out := make([]string, len(r.trees))
	for i := range r.trees {
		out[i] = r.TreeXML(i)
	}
	sortStrings(out)
	return out
}

func sortStrings(xs []string) { sort.Strings(xs) }

// WorkloadQuery is one query of the paper's Figure 15 benchmark workload.
type WorkloadQuery struct {
	// ID is the Figure 15 row name (x1…x20, Q1, Q2, 10a).
	ID string
	// Text is the query in the supported XQuery fragment.
	Text string
	// Comment mirrors the Figure 15 comment column.
	Comment string
	// Rewritable marks the queries the Section 4 rewrites apply to
	// (the Figure 16 set).
	Rewritable bool
}

// Workload returns the 23 benchmark queries of Figure 15 in table order.
func Workload() []WorkloadQuery {
	qs := xmark.Queries()
	out := make([]WorkloadQuery, len(qs))
	for i, q := range qs {
		out[i] = WorkloadQuery{ID: q.ID, Text: q.Text, Comment: q.Comment, Rewritable: q.Rewritable}
	}
	return out
}
