// Package store implements the native XML store that all four evaluation
// engines (TLC, GTP, TAX, navigational) run against. It stands in for the
// disk-based TIMBER storage manager used in the paper: documents are held
// as columnar node tables (flat end/level/parent/kind/tag/value arrays
// with dictionary-encoded strings — see columns.go), and the store
// maintains the two index structures the paper's experiments rely on — an
// element tag-name index (tag → node ordinals in document order) and a
// value index (content → node ordinals). Access counters make the
// relative cost of the competing plans observable. The columns that cannot
// be derived serialize to a checksummed snapshot file opened via mmap
// (snapshot.go), so a restart maps them and derives the rest instead of
// re-parsing XML.
//
// DocIDs are issued in load order from a single counter and resolved
// through a copy-on-write directory (an atomic pointer swap per load).
//
// Reads never lock. Document versions are immutable, the directory is
// replaced (never mutated) on load and commit, the dictionaries are
// append-only behind atomic pointers (dict.go), and the access
// counters are maintained with sync/atomic, so concurrent queries probe
// indexes and fetch nodes without coordination. A query running alone
// produces exactly the counter values the paper's
// single-query-at-a-time measurements would.
package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"tlc/internal/faultinject"
	"tlc/internal/xmltree"
)

// DocID identifies a loaded document within a store. IDs are issued in
// load order.
type DocID int32

// Stats counts the store accesses performed during query evaluation. A
// profile reports it per operator next to wall-clock time, the examples per
// query, making visible *why* one plan beats another (redundant index
// scans, early materialization, navigation steps).
type Stats struct {
	// TagLookups counts tag-index probes.
	TagLookups int64
	// TagRefs counts node references returned by tag-index probes.
	TagRefs int64
	// ValueLookups counts value-index probes.
	ValueLookups int64
	// NodesRead counts individual node records fetched (navigation and
	// content reads).
	NodesRead int64
	// NodesMaterialized counts nodes copied out of the store into
	// intermediate results (subtree materialization).
	NodesMaterialized int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.TagLookups += other.TagLookups
	s.TagRefs += other.TagRefs
	s.ValueLookups += other.ValueLookups
	s.NodesRead += other.NodesRead
	s.NodesMaterialized += other.NodesMaterialized
}

// String renders the counters in a compact single-line form.
func (s Stats) String() string {
	return fmt.Sprintf("tagLookups=%d tagRefs=%d valueLookups=%d nodesRead=%d materialized=%d",
		s.TagLookups, s.TagRefs, s.ValueLookups, s.NodesRead, s.NodesMaterialized)
}

// counters is the mutable, atomically-maintained form of Stats. Keeping
// the exported Stats a plain value type preserves the snapshot/Add/String
// API while making the live counters safe for concurrent writers.
type counters struct {
	tagLookups        atomic.Int64
	tagRefs           atomic.Int64
	valueLookups      atomic.Int64
	nodesRead         atomic.Int64
	nodesMaterialized atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		TagLookups:        c.tagLookups.Load(),
		TagRefs:           c.tagRefs.Load(),
		ValueLookups:      c.valueLookups.Load(),
		NodesRead:         c.nodesRead.Load(),
		NodesMaterialized: c.nodesMaterialized.Load(),
	}
}

func (c *counters) reset() {
	c.tagLookups.Store(0)
	c.tagRefs.Store(0)
	c.valueLookups.Store(0)
	c.nodesRead.Store(0)
	c.nodesMaterialized.Store(0)
}

// directory is the immutable global view of the loaded documents. Loads
// build a new directory (copying the slice header and map) and swap the
// store's pointer, so concurrent readers always observe a consistent
// snapshot without locking.
type directory struct {
	docs   []*Doc
	byName map[string]DocID
}

var emptyDirectory = &directory{byName: map[string]DocID{}}

// Store is a collection of indexed XML documents.
type Store struct {
	// tags and vals are the interned string dictionaries of XML-loaded
	// documents. Snapshot-opened documents carry their own frozen
	// dictionaries (views into the mapped file) and do not share these.
	tags, vals *dict
	// stats holds the access counters.
	stats *counters
	dir   atomic.Pointer[directory]
	// loadMu serializes directory swaps between concurrent loads. The
	// expensive part of a load (parsing, indexing) runs before
	// taking it, so concurrent loads overlap almost entirely.
	loadMu  sync.Mutex
	noStats bool
	// maps holds the snapshot file mappings backing snapshot-opened
	// documents; Close unmaps them. Guarded by loadMu.
	maps []*mapping
	// mappedBytes tracks the total size of the live mappings (gauge for
	// /varz).
	mappedBytes atomic.Int64
	// pinned marks a read-only directory view returned by Pin: it shares
	// the dictionaries and counters with its parent but its
	// dir pointer is frozen, giving a query snapshot isolation for its
	// whole lifetime. Pinned views reject loads and commits.
	pinned bool
	// writers counts in-flight mutations (BeginMutation/end). LoadSnapshot
	// refuses to run while writers are in flight (ErrConcurrentMutation).
	writers atomic.Int64
	// updateGen counts committed mutations store-wide. It is recorded in
	// snapshot manifests so a snapshot written before later updates is
	// detectably stale. It is written under loadMu only.
	updateGen atomic.Uint64
	// superseded counts document versions replaced by a commit and not yet
	// reclaimed by the garbage collector (their finalizer decrements it);
	// VersionsLive adds it to the live document count.
	superseded atomic.Int64
	// commitLog, when set, is invoked inside CommitLogged — after the
	// version-conflict check, before the directory swap — with the commit's
	// sequence number (the update generation it will publish) and the
	// logical operation payload. An error vetoes the commit: the write-ahead
	// rule that makes every acknowledged update recoverable.
	commitLog atomic.Pointer[CommitLogFunc]
}

// CommitLogFunc persists one logical update before its directory swap.
// It runs under the store's commit lock, so calls arrive with strictly
// increasing, contiguous sequence numbers.
type CommitLogFunc func(seq uint64, payload []byte) error

// SetCommitLog installs (or, with nil, removes) the durable commit hook.
func (s *Store) SetCommitLog(fn CommitLogFunc) {
	if fn == nil {
		s.commitLog.Store(nil)
		return
	}
	s.commitLog.Store(&fn)
}

// LogsCommits reports whether a commit hook is installed — callers use it
// to skip serializing the logical operation when nothing will log it.
func (s *Store) LogsCommits() bool { return s.commitLog.Load() != nil }

// New returns an empty store.
func New() *Store {
	s := &Store{tags: newDict(), vals: newDict(), stats: &counters{}}
	s.dir.Store(emptyDirectory)
	return s
}

// NewSharded returns New(); n is ignored. It remains only because
// bench/layers.go:478 calls it; the next benchmark change deletes it.
func NewSharded(n int) *Store { return New() }

// entry resolves a DocID through the current directory snapshot.
func (s *Store) entry(id DocID) *Doc { return s.dir.Load().docs[id] }

// Load converts doc to the columnar layout, indexes it and adds it to the
// store. Loading a document whose name is already present is an error.
// Loads may run concurrently with queries and with other loads: all the
// heavy work happens before the directory swap, and readers observe the
// new document only after its indexes are complete.
func (s *Store) Load(doc *xmltree.Document) (DocID, error) {
	if err := faultinject.Hit(faultinject.PointStoreLoad); err != nil {
		return 0, err
	}
	if err := doc.Validate(); err != nil {
		return 0, fmt.Errorf("store: load: %w", err)
	}
	if _, dup := s.Lookup(doc.Name); dup {
		return 0, fmt.Errorf("store: document %q already loaded", doc.Name)
	}
	// The DocID is not final until the publish below; buildDoc only
	// records it for accessors, so build against the expected next ID and
	// fix it up under the lock.
	d := buildDoc(doc, DocID(s.NumDocs()), s.tags, s.vals)
	return s.publish(d)
}

// publish adds a fully-built document to the directory under loadMu.
func (s *Store) publish(d *Doc) (DocID, error) {
	if s.pinned {
		return 0, fmt.Errorf("store: load into a pinned (read-only) view")
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	old := s.dir.Load()
	if _, dup := old.byName[d.name]; dup {
		return 0, fmt.Errorf("store: document %q already loaded", d.name)
	}
	id := DocID(len(old.docs))
	d.id = id
	next := &directory{
		docs:   make([]*Doc, len(old.docs), len(old.docs)+1),
		byName: make(map[string]DocID, len(old.byName)+1),
	}
	copy(next.docs, old.docs)
	next.docs = append(next.docs, d)
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.byName[d.name] = id
	s.dir.Store(next)
	return id, nil
}

// LoadXML parses XML from r and loads it under the given document name.
func (s *Store) LoadXML(name string, r io.Reader) (DocID, error) {
	doc, err := xmltree.Parse(name, r)
	if err != nil {
		return 0, err
	}
	return s.Load(doc)
}

// Lookup returns the DocID for a loaded document name.
func (s *Store) Lookup(name string) (DocID, bool) {
	id, ok := s.dir.Load().byName[name]
	return id, ok
}

// Names returns the names of the loaded documents in load order.
func (s *Store) Names() []string {
	dir := s.dir.Load()
	names := make([]string, len(dir.docs))
	for i := range dir.docs {
		names[i] = dir.docs[i].name
	}
	return names
}

// Doc returns the columnar view of the document with the given ID. The
// view is immutable, lock-free and uncounted: engines walk it directly on
// hot paths, while counted access goes through the Store methods below.
func (s *Store) Doc(id DocID) *Doc { return s.entry(id) }

// NumDocs returns the number of loaded documents.
func (s *Store) NumDocs() int { return len(s.dir.Load().docs) }

// Pin returns a read-only view of the store frozen at the current
// directory state. The view shares the dictionaries and access counters
// with its parent, so counted accesses are still attributed correctly,
// but its directory pointer never moves: a query
// evaluated against the view is snapshot-isolated — it sees no document
// version committed, and no document loaded, after the Pin. Pinning is
// one small allocation; readers never block writers and vice versa.
func (s *Store) Pin() *Store {
	p := &Store{tags: s.tags, vals: s.vals, stats: s.stats, noStats: s.noStats, pinned: true}
	p.dir.Store(s.dir.Load())
	return p
}

// DocVersion returns the current MVCC version of a loaded document.
func (s *Store) DocVersion(name string) (uint64, bool) {
	dir := s.dir.Load()
	id, ok := dir.byName[name]
	if !ok {
		return 0, false
	}
	return dir.docs[id].version, true
}

// UpdateGeneration returns the number of mutations committed into the
// store over its lifetime. Snapshot manifests record it, so a snapshot
// written before later updates is detectably stale (SnapshotUpdateGen).
func (s *Store) UpdateGeneration() uint64 { return s.updateGen.Load() }

// VersionsLive returns the number of document versions currently alive:
// the loaded documents plus superseded versions that pinned readers (or
// the garbage collector) still hold.
func (s *Store) VersionsLive() int64 {
	return int64(s.NumDocs()) + s.superseded.Load()
}

// InFlightWriters returns the number of mutations currently between
// BeginMutation and its release.
func (s *Store) InFlightWriters() int64 { return s.writers.Load() }

// BeginMutation registers an in-flight writer and returns the function
// that ends it (idempotent). LoadSnapshot refuses to run while any writer
// is registered, so a bulk mmap load can never interleave with a splice.
func (s *Store) BeginMutation() func() {
	s.writers.Add(1)
	var once sync.Once
	return func() { once.Do(func() { s.writers.Add(-1) }) }
}

// MappedBytes returns the total size of the snapshot file mappings
// currently backing the store (0 for stores built purely from XML).
func (s *Store) MappedBytes() int64 { return s.mappedBytes.Load() }

// Close releases the snapshot file mappings backing snapshot-opened
// documents. After Close, accessing such documents is undefined; Close is
// for shutdown paths, not for reconfiguration.
func (s *Store) Close() error {
	s.loadMu.Lock()
	maps := s.maps
	s.maps = nil
	s.loadMu.Unlock()
	var firstErr error
	for _, m := range maps {
		s.mappedBytes.Add(-int64(len(m.data)))
		if err := m.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DictStats is the store's dictionary gauges. The dictionaries are
// append-only, so between checkpoints they accumulate strings that updates
// brought and later removed: ValueStrings - ValueLive is roughly that
// garbage (a snapshot drops it, see dictWriter.remap).
type DictStats struct {
	// TagStrings and ValueStrings count the strings interned in the
	// dictionaries the current document versions resolve through.
	TagStrings, ValueStrings int
	// ValueLive counts value-index directory entries across those
	// versions: the values some document actually holds.
	ValueLive int
}

// DictStats returns the dictionary gauges. It reads the current directory
// and the dictionaries' published lengths — atomic loads only, so it never
// waits for a writer or a load.
func (s *Store) DictStats() DictStats {
	counted := make(map[*dict]bool)
	count := func(d *dict) int {
		if counted[d] {
			return 0
		}
		counted[d] = true
		return d.size()
	}
	out := DictStats{TagStrings: count(s.tags), ValueStrings: count(s.vals)}
	// Snapshot-opened documents resolve through their file's dictionaries,
	// not the store's.
	for _, d := range s.dir.Load().docs {
		out.TagStrings += count(d.tags)
		out.ValueStrings += count(d.vals)
		out.ValueLive += len(d.valDir)
	}
	return out
}

// ResetStats zeroes the access counters.
func (s *Store) ResetStats() { s.stats.reset() }

// Snapshot returns a copy of the current access counters.
func (s *Store) Snapshot() Stats { return s.stats.snapshot() }

// DisableStats turns off counter maintenance; used by throughput-focused
// benchmarks where even the counter writes are unwanted.
func (s *Store) DisableStats() { s.noStats = true }

// TagCount returns the number of nodes with the given tag, read off the
// postings length without touching the access counters.
func (s *Store) TagCount(id DocID, tag string) int {
	return len(s.entry(id).tagRefsByName(tag))
}

// Tag returns the ordinals of all nodes with the given tag in document id,
// in document order. The returned slice is shared and must not be modified.
func (s *Store) Tag(id DocID, tag string) []int32 {
	d := s.entry(id)
	refs := d.tagRefsByName(tag)
	if !s.noStats {
		st := s.stats
		st.tagLookups.Add(1)
		st.tagRefs.Add(int64(len(refs)))
	}
	return refs
}

// TagWithin returns the ordinals of nodes with the given tag that lie
// strictly inside the interval of the node at ancestor, using binary search
// over the tag index (node-ID property 2 makes this a range scan).
func (s *Store) TagWithin(id DocID, tag string, ancestor int32) []int32 {
	d := s.entry(id)
	refs := d.tagRefsByName(tag)
	end := d.c.end[ancestor]
	lo := sort.Search(len(refs), func(i int) bool { return refs[i] > ancestor })
	hi := sort.Search(len(refs), func(i int) bool { return refs[i] > end })
	if !s.noStats {
		st := s.stats
		st.tagLookups.Add(1)
		st.tagRefs.Add(int64(hi - lo))
	}
	return refs[lo:hi]
}

// Value returns the ordinals of all nodes in document id whose content is
// exactly v, in document order.
func (s *Store) Value(id DocID, v string) []int32 {
	d := s.entry(id)
	refs := d.valueRefsByName(v)
	if !s.noStats {
		st := s.stats
		st.valueLookups.Add(1)
		st.tagRefs.Add(int64(len(refs)))
	}
	return refs
}

// TagValue returns the ordinals of nodes with the given tag and exact
// content v, computed by merging the tag and value index postings. This is
// how equality content predicates are answered when a value index exists.
func (s *Store) TagValue(id DocID, tag, v string) []int32 {
	d := s.entry(id)
	tagRefs := d.tagRefsByName(tag)
	valRefs := d.valueRefsByName(v)
	st := s.stats
	if !s.noStats {
		st.tagLookups.Add(1)
		st.valueLookups.Add(1)
	}
	var out []int32
	i, j := 0, 0
	for i < len(tagRefs) && j < len(valRefs) {
		switch {
		case tagRefs[i] < valRefs[j]:
			i++
		case tagRefs[i] > valRefs[j]:
			j++
		default:
			out = append(out, tagRefs[i])
			i++
			j++
		}
	}
	if !s.noStats {
		st.tagRefs.Add(int64(len(out)))
	}
	return out
}

// NodeData is one decoded node record: the fields the old arena node
// carried, materialized from the columns on demand.
type NodeData struct {
	ID         xmltree.NodeID
	Kind       xmltree.Kind
	Tag        string
	Value      string
	Parent     int32
	FirstChild int32
}

// Node fetches a node record, counting the access.
func (s *Store) Node(id DocID, ord int32) NodeData {
	d := s.entry(id)
	if !s.noStats {
		s.stats.nodesRead.Add(1)
	}
	return NodeData{
		ID:         d.ID(ord),
		Kind:       d.Kind(ord),
		Tag:        d.Tag(ord),
		Value:      d.Value(ord),
		Parent:     d.c.parent[ord],
		FirstChild: d.FirstChild(ord),
	}
}

// Content returns the content value of a node (see Doc.Content), counting
// the access.
func (s *Store) Content(id DocID, ord int32) string {
	d := s.entry(id)
	if !s.noStats {
		s.stats.nodesRead.Add(1)
	}
	return d.Content(ord)
}

// Children returns the child ordinals of a node, counting one read per
// child returned. This is the primitive the navigational engine uses.
func (s *Store) Children(id DocID, ord int32) []int32 {
	d := s.entry(id)
	kids := d.Children(ord)
	if !s.noStats {
		s.stats.nodesRead.Add(int64(len(kids)) + 1)
	}
	return kids
}

// CountMaterialized records that n nodes were copied out of the store into
// an intermediate result.
func (s *Store) CountMaterialized(n int) {
	if !s.noStats {
		s.stats.nodesMaterialized.Add(int64(n))
	}
}
