package store

// This file implements the store half of the MVCC update subsystem: the
// subtree splice primitive and the versioned commit.
//
// A splice is the one structural edit every update reduces to: under a
// parent element P, delete a contiguous run of whole sibling subtrees
// [At, DelEnd) and/or insert one fragment subtree at position At. Because
// the paper's interval node IDs make every structural relation a pure
// function of (start, end, level), the spliced document is computed by
// column arithmetic — survivors before the splice point keep their
// ordinals, survivors after it shift by (inserted − deleted), ancestor
// intervals stretch or shrink by the same amount, and levels never change
// for survivors. Ordinals are kept dense (start == ordinal is what makes
// every structural join a comparison of integers and every postings list a
// sorted array), so the nodes past the splice point move — as a memmove plus
// one straight loop that shifts interval ends and parents.
//
// A published version is never edited. A live update builds the next
// version off to the side (BuildSplice: block copies with the fragment
// written into a gap) and Commit swaps the copy-on-write directory entry,
// so readers pinned on the old version keep a consistent view to
// completion while writers never wait for them. Readers see the new version
// the moment it commits, so its tag/value postings are carried forward
// incrementally: for a dictionary ID the splice touches, the new postings
// list is the concatenation of the unshifted prefix (< At), the fragment's
// ordinals ([At, At+m)), and the shifted suffix (>= DelEnd); all other lists
// are carried over in runs, never searched (spliceIndex). What an update
// costs depends on the document and the fragment, never on the updates that
// came before.
//
// A version nobody else can see — the one a WAL replay builds — is spliced
// in place instead (SplicePrivate): columns only, the tail moved by one
// overlapping copy, and nothing derived until CommitPrivate builds its
// postings once, with the builder Load uses (derive), and publishes it.
// Either way strings are interned into the store's shared append-only
// dictionaries, which costs the strings that are new (dict.go).
//
// One invariant keeps the arithmetic exact: a splice must not change the
// concatenated text content of the parent P. Deleting an element between
// two text siblings therefore extends the deletion to both texts and
// re-inserts one merged text node (the mutate package does this), which is
// also exactly what re-parsing the serialized document would produce.

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"tlc/internal/faultinject"
	"tlc/internal/xmltree"
)

// Typed mutation errors.
var (
	// ErrVersionConflict reports a commit whose base document version was
	// superseded by a concurrent commit; the caller must re-read and retry.
	ErrVersionConflict = errors.New("store: stale document version")
	// ErrConcurrentMutation reports an operation that cannot run while
	// writers are in flight (LoadSnapshot).
	ErrConcurrentMutation = errors.New("store: concurrent mutation in flight")
	// ErrDurability reports a commit vetoed because its write-ahead log
	// record could not be persisted; the store is unchanged.
	ErrDurability = errors.New("store: durable log write failed")
	// ErrBadSplice reports a structurally invalid splice specification.
	ErrBadSplice = errors.New("store: invalid splice")
	// ErrSpliceContent reports a splice that would change the concatenated
	// text content of the parent element, which the incremental index
	// maintenance relies on being invariant.
	ErrSpliceContent = errors.New("store: splice changes parent text content")
)

// SpliceOp is one structural edit of a document: under the element at
// ordinal Parent, delete the sibling subtrees covering ordinals
// [At, DelEnd) and insert Frag (a single-rooted fragment) at position At.
// DelEnd == At deletes nothing (pure insert); Frag == nil inserts nothing
// (pure delete); both at once is a replace.
type SpliceOp struct {
	// Parent is the ordinal of the element the edit happens under.
	Parent int32
	// At is the splice position: the ordinal of the first deleted node,
	// and the ordinal the fragment root lands on. It must be a child
	// boundary of Parent (the start of a child subtree, or end(Parent)+1
	// to append after the last child).
	At int32
	// DelEnd is the exclusive end of the deleted ordinal range. The range
	// [At, DelEnd) must cover whole sibling subtrees of Parent.
	DelEnd int32
	// Frag is the fragment to insert, in parsed preorder form; its root
	// becomes a child of Parent at position At. Levels in the fragment are
	// relative (root at 0). Nil for a pure delete.
	Frag *xmltree.Document
}

// SpliceResult summarizes a built splice.
type SpliceResult struct {
	// NodesRemoved and NodesAdded count the deleted range and the
	// fragment.
	NodesRemoved, NodesAdded int
}

// BuildSplice computes the new version of document d produced by op: a
// fresh *Doc with version d.Version()+1 that shares d's dictionaries, every
// array at its exact size, postings maintained incrementally.
// The input document is not modified, and the heavy work runs outside
// every lock — pass the result to Commit to publish it.
func (s *Store) BuildSplice(d *Doc, op SpliceOp) (*Doc, SpliceResult, error) {
	e, err := d.prepare(op)
	if err != nil {
		return nil, SpliceResult{}, err
	}
	nd := d.successor()
	e.apply(&nd.c, 0)
	d0, d1, m := op.At, op.DelEnd, e.m

	// Incremental index maintenance: merge, never rebuild.
	nd.tagDir, nd.tagPost = spliceIndex(d.tagDir, d.tagPost, d.c.tag, nd.c.tag, 0, d0, d1, m, e.shift)
	nd.valDir, nd.valPost = spliceIndex(d.valDir, d.valPost, d.c.val, nd.c.val, 1, d0, d1, m, e.shift)
	return nd, e.result(), nil
}

// SplicePrivate applies op to a version nobody else sees and returns it;
// nothing derived is maintained, and no lock is taken. Given a published
// version d — perhaps pinned by a running query, perhaps a view of a
// snapshot mapping — it splices a private successor instead, its columns
// copied with an eighth of slack, and d is only read; a private version is
// spliced in place, in its own arrays, which grow only when the document
// outgrows them: each column's tail moves with one overlapping copy and the
// fragment is written into the gap. An invalid op changes nothing.
// CommitPrivate publishes the result.
func (s *Store) SplicePrivate(d *Doc, op SpliceOp) (*Doc, SpliceResult, error) {
	e, err := d.prepare(op)
	if err != nil {
		return nil, SpliceResult{}, err
	}
	if d.private {
		e.apply(&d.c, -1)
		d.version++
		return d, e.result(), nil
	}
	p := d.successor()
	p.private = true
	e.apply(&p.c, d.Len()/8)
	return p, e.result(), nil
}

// successor returns the shell of d's next version: d's columns, which it
// must not write, and dictionaries; nothing derived.
func (d *Doc) successor() *Doc {
	return &Doc{name: d.name, id: d.id, c: d.c, tags: d.tags, vals: d.vals, version: d.version + 1, life: new(lifetime)}
}

// edit is a splice validated against one version, its fragment interned:
// what BuildSplice and SplicePrivate apply to that version's columns.
type edit struct {
	SpliceOp
	m, shift int32
	// tag and val are the fragment's column entries: tag dictionary IDs,
	// value dictionary IDs + 1 (0 = no content).
	tag, val []uint32
}

// prepare checks op against d — a range of whole sibling subtrees at a
// child boundary of an element, a valid fragment, the parent's content
// unchanged — and interns the fragment's strings. Nothing is written.
func (d *Doc) prepare(op SpliceOp) (*edit, error) {
	n := int32(d.Len())
	P, d0, d1 := op.Parent, op.At, op.DelEnd
	if P < 0 || P >= n || xmltree.Kind(d.c.kind[P]) != xmltree.Element {
		return nil, fmt.Errorf("%w: parent %d is not an element", ErrBadSplice, P)
	}
	limit := d.c.end[P] + 1
	if d0 <= P || d0 > limit || d1 < d0 || d1 > limit {
		return nil, fmt.Errorf("%w: range [%d, %d) outside parent %d", ErrBadSplice, d0, d1, P)
	}
	if d0 <= d.c.end[P] && d.c.parent[d0] != P {
		return nil, fmt.Errorf("%w: position %d is not a child boundary of %d", ErrBadSplice, d0, P)
	}
	var deleted strings.Builder // the text children of P the splice deletes
	for c := d0; c < d1; {
		if d.c.parent[c] != P {
			return nil, fmt.Errorf("%w: node %d is not a child of %d", ErrBadSplice, c, P)
		}
		if xmltree.Kind(d.c.kind[c]) == xmltree.Text {
			deleted.WriteString(d.vals.str(d.c.val[c] - 1))
		}
		c = d.c.end[c] + 1
		if c > d1 {
			return nil, fmt.Errorf("%w: range [%d, %d) splits a subtree", ErrBadSplice, d0, d1)
		}
	}
	e := &edit{SpliceOp: op}
	inserted := "" // the fragment root, if it is a text child of P
	if op.Frag != nil {
		if err := op.Frag.Validate(); err != nil {
			return nil, fmt.Errorf("%w: fragment: %v", ErrBadSplice, err)
		}
		e.m = int32(len(op.Frag.Nodes))
		if root := &op.Frag.Nodes[0]; root.Kind == xmltree.Text {
			inserted = root.Value
		}
	}
	if e.m == 0 && d1 == d0 {
		return nil, fmt.Errorf("%w: empty splice", ErrBadSplice)
	}
	// The parent-content invariant: P's element content (the concatenation
	// of its direct text children) must be unchanged, or the interned val
	// column and the value index entries for P would be stale. P keeps its
	// children before At and from DelEnd on, so the content is unchanged
	// exactly when the text the splice deletes between them is the text it
	// inserts.
	if deleted.String() != inserted {
		return nil, fmt.Errorf("%w: parent %d", ErrSpliceContent, P)
	}
	e.shift = e.m - (d1 - d0)

	// The fragment's strings, interned into the document's dictionaries.
	if e.m > 0 {
		var localTags, localVals []string
		localTagIdx := make(map[string]uint32)
		localValIdx := make(map[string]uint32)
		e.tag = make([]uint32, e.m) // local IDs until interned
		e.val = make([]uint32, e.m)
		for k := range op.Frag.Nodes {
			fn := &op.Frag.Nodes[k]
			lt, ok := localTagIdx[fn.Tag]
			if !ok {
				lt = uint32(len(localTags))
				localTags = append(localTags, fn.Tag)
				localTagIdx[fn.Tag] = lt
			}
			e.tag[k] = lt
			content, hasContent := "", false
			switch fn.Kind {
			case xmltree.Attribute, xmltree.Text:
				content, hasContent = fn.Value, true
			case xmltree.Element:
				if c := op.Frag.Content(int32(k)); c != "" {
					content, hasContent = c, true
				}
			}
			if hasContent {
				lv, ok := localValIdx[content]
				if !ok {
					lv = uint32(len(localVals))
					localVals = append(localVals, content)
					localValIdx[content] = lv
				}
				e.val[k] = lv + 1
			}
		}
		gTag := d.tags.internAll(localTags)
		gVal := d.vals.internAll(localVals)
		for k := range e.tag {
			e.tag[k] = gTag[e.tag[k]]
			if v := e.val[k]; v != 0 {
				e.val[k] = gVal[v-1] + 1
			}
		}
	}
	return e, nil
}

// apply turns c, the columns of the version e was prepared against, into
// the columns of the version it produces: in place when room < 0, else in
// fresh arrays with room entries to spare.
func (e *edit) apply(c *cols, room int) {
	P, d0, d1, m, shift := e.Parent, e.At, e.DelEnd, e.m, e.shift
	c.end = gap(c.end, d0, d1, m, room)
	c.level = gap(c.level, d0, d1, m, room)
	c.parent = gap(c.parent, d0, d1, m, room)
	c.kind = gap(c.kind, d0, d1, m, room)
	c.tag = gap(c.tag, d0, d1, m, room)
	c.val = gap(c.val, d0, d1, m, room)

	// Survivors. Level, kind, tag and value never change, and ordinals
	// below the splice point are stable, so the survivors are already right
	// except for two things. Before the splice point only the intervals
	// containing it move: exactly P and its ancestors (any other node before
	// At ends before At). At or past the deleted range everything shifts as
	// a block: every interval end, and every parent that is itself in the
	// block.
	for a := P; a >= 0; a = c.parent[a] {
		c.end[a] += shift
	}
	if shift != 0 {
		// Branch-free: x>>31 is -1 for a negative x and 0 otherwise.
		end, parent := c.end[d0+m:], c.parent[d0+m:]
		parent = parent[:len(end)]
		for j := range end {
			end[j] += shift
			parent[j] += shift &^ ((parent[j] - d1) >> 31)
		}
	}

	// Fragment: local preorder shifted to [At, At+m), levels rebased under
	// P.
	baseLevel := c.level[P] + 1
	for k := int32(0); k < m; k++ {
		fn := &e.Frag.Nodes[k]
		j := d0 + k
		c.end[j] = fn.ID.End + d0
		c.level[j] = fn.ID.Level + baseLevel
		if fn.Parent < 0 {
			c.parent[j] = P
		} else {
			c.parent[j] = fn.Parent + d0
		}
		c.kind[j] = uint8(fn.Kind)
		c.tag[j] = e.tag[k]
		c.val[j] = e.val[k]
	}
}

func (e *edit) result() SpliceResult {
	return SpliceResult{NodesRemoved: int(e.DelEnd - e.At), NodesAdded: int(e.m)}
}

// gap returns col[:d0] ++ m unspecified entries ++ col[d1:]: with room < 0
// in col's own array, the tail moved by one overlapping copy and the array
// grown — by append's geometric rule — only when the column outgrows it;
// otherwise in a fresh array with room entries to spare.
func gap[T any](col []T, d0, d1, m int32, room int) []T {
	n := len(col) + int(m-(d1-d0))
	out := col
	switch {
	case room >= 0:
		out = make([]T, n, n+room)
		copy(out, col[:d0])
	case n > len(col):
		out = slices.Grow(col, n-len(col))
	}
	out = out[:n]
	copy(out[d0+m:], col[d1:])
	return out
}

// posting is one index entry the splice touches: the dictionary ID of a
// fragment node with the ordinal it lands on, or of a deleted node (ord -1).
type posting struct {
	id  uint32
	ord int32
}

// spliceIndex produces the postings index of the spliced document from
// the old index and the old and new column. For a dictionary ID that
// neither a deleted nor a fragment node carries — all but a handful — no
// posting lies in the deleted range, so the new list is the old one with
// every ordinal at or past the range shifted: runs of such directory
// entries are copied, offsets adjusted, and their postings rewritten in one
// straight loop, never searched. For the touched IDs the new list is
// prefix (old ordinals < d0, unshifted) ++ fragment ordinals ([d0, d0+m))
// ++ suffix (old ordinals >= d1, shifted) — each part is already sorted and
// the parts are disjoint ascending ranges, so the merge is pure
// concatenation; entries that end up empty are dropped, exactly as a fresh
// build would never create them.
func spliceIndex(oldDir []dirEntry, oldPost []int32, oldCol, newCol []uint32, bias uint32, d0, d1, m, shift int32) ([]dirEntry, []int32) {
	touched := make([]posting, 0, d1-d0+m)
	for _, v := range oldCol[d0:d1] {
		if v >= bias { // val column: 0 means "no content"
			touched = append(touched, posting{id: v - bias, ord: -1})
		}
	}
	removed := len(touched)
	for j := d0; j < d0+m; j++ {
		if v := newCol[j]; v >= bias {
			touched = append(touched, posting{id: v - bias, ord: j})
		}
	}
	added := len(touched) - removed
	// Stable by ID keeps each ID's fragment ordinals ascending.
	slices.SortStableFunc(touched, func(a, b posting) int { return cmp.Compare(a.id, b.id) })

	dir := make([]dirEntry, 0, len(oldDir)+added)
	post := make([]int32, len(oldPost)-removed+added)
	w := 0 // postings written
	// shifted writes old postings that all survive: at or past the deleted
	// range they move with the block.
	shifted := func(refs []int32) {
		dst := post[w : w+len(refs)]
		for k, r := range refs {
			if r >= d1 {
				r += shift
			}
			dst[k] = r
		}
		w += len(refs)
	}
	// untouched carries a run of directory entries over. Postings of
	// consecutive entries are normally adjacent, so the loops run over
	// whole stretches of the directory and of the postings array.
	untouched := func(run []dirEntry) {
		for len(run) > 0 {
			k, end := 1, run[0].off+run[0].n
			for k < len(run) && run[k].off == end {
				end += run[k].n
				k++
			}
			delta := uint32(w) - run[0].off
			for _, e := range run[:k] {
				dir = append(dir, dirEntry{id: e.id, off: e.off + delta, n: e.n})
			}
			shifted(oldPost[run[0].off:end])
			run = run[k:]
		}
	}
	i := 0
	for t := 0; t < len(touched); {
		id := touched[t].id
		j, known := slices.BinarySearchFunc(oldDir[i:], id, func(e dirEntry, id uint32) int { return cmp.Compare(e.id, id) })
		untouched(oldDir[i : i+j])
		i += j
		var refs []int32
		if known {
			refs = oldPost[oldDir[i].off : oldDir[i].off+oldDir[i].n]
			i++
		}
		lo, _ := slices.BinarySearch(refs, d0)
		hi, _ := slices.BinarySearch(refs, d1)
		off := w
		w += copy(post[w:], refs[:lo])
		for ; t < len(touched) && touched[t].id == id; t++ {
			if touched[t].ord >= 0 {
				post[w] = touched[t].ord
				w++
			}
		}
		shifted(refs[hi:])
		if w > off {
			dir = append(dir, dirEntry{id: id, off: uint32(off), n: uint32(w - off)})
		}
	}
	untouched(oldDir[i:])
	return dir, post
}

// Commit publishes nd as the new version of old: the directory entry is
// swapped copy-on-write under the same lock document loads use, after
// verifying old is still the current version (pointer identity — the
// optimistic concurrency check). On conflict the store is unchanged and
// ErrVersionConflict is returned; the caller re-reads and retries or
// surfaces the conflict. Readers that resolved the document before the
// swap — or pinned the directory — keep the old version until they finish;
// its memory is reclaimed by the garbage collector once the last reader
// drops it (VersionsLive watches this via a finalizer).
func (s *Store) Commit(old, nd *Doc) error {
	return s.CommitLogged(old, nd, nil)
}

// CommitLogged is Commit plus the write-ahead step: when a commit hook is
// installed (SetCommitLog) and payload is non-nil, the hook runs after the
// conflict check and before the directory swap, with the sequence number
// this commit will publish. A hook failure aborts the commit with
// ErrDurability and the store unchanged — an update is never visible to
// readers unless its log record was accepted first.
func (s *Store) CommitLogged(old, nd *Doc, payload []byte) error {
	return s.commit([][2]*Doc{{old, nd}}, func(gen uint64) (uint64, error) {
		if fn := s.commitLog.Load(); fn != nil && payload != nil {
			if err := (*fn)(gen+1, payload); err != nil {
				return gen, fmt.Errorf("%w: document %q: %w", ErrDurability, old.name, err)
			}
		}
		return gen + 1, nil
	})
}

// CommitPrivate publishes versions from SplicePrivate, each over the
// published version it was copied from, and raises the update generation to gen: all of it or
// nothing. Pairs are (base, private). Each private version's postings
// indexes are derived from its columns first, outside every
// lock, by the builder Load uses; then every base must still be current,
// and all the documents change with one directory swap, so no reader sees
// some of them published and others not. On ErrVersionConflict the store is
// unchanged.
func (s *Store) CommitPrivate(gen uint64, pairs [][2]*Doc) error {
	for _, p := range pairs {
		if !p[1].private {
			return fmt.Errorf("%w: version %d of %q is not private", ErrBadSplice, p[1].version, p[1].name)
		}
		derive(p[1])
		p[1].private = false
	}
	return s.commit(pairs, func(cur uint64) (uint64, error) { return max(cur, gen), nil })
}

// commit swaps each (old, new) pair's new version in with one directory
// store, under the lock loads take, if every old version is still the
// current one (pointer identity — the optimistic concurrency check). advance
// maps the update generation to the one the commit publishes; its error
// vetoes the commit.
func (s *Store) commit(pairs [][2]*Doc, advance func(gen uint64) (uint64, error)) error {
	if s.pinned {
		return fmt.Errorf("store: commit into a pinned (read-only) view")
	}
	if err := faultinject.Hit(faultinject.PointMutateCommit); err != nil {
		return err
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	cur := s.dir.Load()
	for _, p := range pairs {
		if old := p[0]; int(old.id) >= len(cur.docs) || cur.docs[old.id] != old {
			return fmt.Errorf("store: document %q: %w", old.name, ErrVersionConflict)
		}
	}
	gen, err := advance(s.updateGen.Load())
	if err != nil {
		return err
	}
	// Names and IDs are untouched by a commit.
	next := &directory{docs: slices.Clone(cur.docs), byName: cur.byName}
	for _, p := range pairs {
		next.docs[p[0].id] = p[1]
	}
	s.dir.Store(next)
	s.updateGen.Store(gen)
	s.superseded.Add(int64(len(pairs)))
	// The finalizer watches the version's lifetime token, not the Doc: a
	// finalizer keeps its object and everything it references alive for one
	// more collection cycle, and the Doc references the columns. The token
	// references none of them, belongs to exactly this version and becomes
	// unreachable with it. (With updates allocating little besides the next
	// version, versions held back by their finalizers were most of the heap.)
	for _, p := range pairs {
		p[0].life.superseded = &s.superseded
		runtime.SetFinalizer(p[0].life, func(l *lifetime) { l.superseded.Add(-1) })
	}
	return nil
}
