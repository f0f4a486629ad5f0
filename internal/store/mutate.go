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
// for survivors. Nothing is edited in place: BuildSplice produces a fresh
// *Doc (a new version) and Commit swaps the copy-on-write directory entry,
// so readers pinned on the old version keep a consistent view to
// completion while writers never wait for them.
//
// What an update costs depends on the document and the fragment, never on
// the updates that came before. The columns are block copies with the
// fragment written into a gap: ordinals are kept dense (start == ordinal is
// what makes every structural join a comparison of integers and every
// postings list a sorted array), so the nodes past the splice point move —
// as a memmove plus straight loops that shift interval ends, parents and
// first children. The tag/value postings indexes are maintained
// incrementally: for a dictionary ID the splice touches, the new postings
// list is the concatenation of the unshifted prefix (< At), the fragment's
// ordinals ([At, At+m)), and the shifted suffix (>= DelEnd); all other
// lists are carried over in runs, never searched (spliceIndex). The
// statistics catalog is sorted arrays maintained by delta counts: each
// deleted and inserted node adjusts its tag cardinality, its parent pair
// and its distinct-ancestor pairs by ±1, and the folded adjustments are
// merged into block copies of the old arrays; distinct-value counts and
// level bounds, which are not sums, are adjusted from the postings of just
// the (tag, value) pairs and tags the splice touched (spliceStats). Strings
// are interned into the shard's shared append-only dictionaries, which
// costs the strings that are new (dict.go).
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
	"math"
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
	// text content of the parent element, which the incremental index and
	// statistics maintenance rely on being invariant.
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
	// StatsDeltas counts the individual ±1 adjustments applied to the
	// statistics catalog (tag cardinalities, child pairs, ancestor pairs).
	StatsDeltas int
}

// BuildSplice computes the new version of document d produced by op. The
// input document is not modified; the result is a fresh *Doc with
// version d.Version()+1 that shares d's dictionaries. The heavy work runs
// outside every lock — pass the result to Commit to publish it.
func (s *Store) BuildSplice(d *Doc, op SpliceOp) (*Doc, SpliceResult, error) {
	return s.BuildSpliceInto(d, op, nil)
}

// BuildSpliceInto is BuildSplice with a destination: the columns, the
// postings indexes and the catalog of the new version are written into the
// arrays of dst where those are large enough, so a caller that splices a
// chain of versions nobody else can see (WAL replay, mutate.Replay)
// allocates a version's worth of memory twice instead of once per record.
// dst is consumed — its contents are unspecified afterwards, also when an
// error is returned — so it must be a version the caller built and owns:
// never one that was published, pinned or mapped, and never d. Every
// element of every array is written (block copies around the gap, the
// fragment into it), so nothing is cleared first. An array dst cannot hold —
// an empty &Doc{} holds none — is allocated with an eighth of slack, which
// is what stops a chain on a growing document from allocating again at
// every record. A nil dst allocates every array at its exact size, as
// BuildSplice always has.
func (s *Store) BuildSpliceInto(d *Doc, op SpliceOp, dst *Doc) (*Doc, SpliceResult, error) {
	var res SpliceResult
	if dst == d {
		return nil, res, fmt.Errorf("%w: destination is the source version", ErrBadSplice)
	}
	n := int32(d.Len())
	P, d0, d1 := op.Parent, op.At, op.DelEnd
	if P < 0 || P >= n || xmltree.Kind(d.c.kind[P]) != xmltree.Element {
		return nil, res, fmt.Errorf("%w: parent %d is not an element", ErrBadSplice, P)
	}
	limit := d.c.end[P] + 1
	if d0 <= P || d0 > limit || d1 < d0 || d1 > limit {
		return nil, res, fmt.Errorf("%w: range [%d, %d) outside parent %d", ErrBadSplice, d0, d1, P)
	}
	if d0 <= d.c.end[P] && d.c.parent[d0] != P {
		return nil, res, fmt.Errorf("%w: position %d is not a child boundary of %d", ErrBadSplice, d0, P)
	}
	for c := d0; c < d1; {
		if d.c.parent[c] != P {
			return nil, res, fmt.Errorf("%w: node %d is not a child of %d", ErrBadSplice, c, P)
		}
		c = d.c.end[c] + 1
		if c > d1 {
			return nil, res, fmt.Errorf("%w: range [%d, %d) splits a subtree", ErrBadSplice, d0, d1)
		}
	}
	var m int32
	if op.Frag != nil {
		if err := op.Frag.Validate(); err != nil {
			return nil, res, fmt.Errorf("%w: fragment: %v", ErrBadSplice, err)
		}
		m = int32(len(op.Frag.Nodes))
	}
	if m == 0 && d1 == d0 {
		return nil, res, fmt.Errorf("%w: empty splice", ErrBadSplice)
	}

	delN := d1 - d0
	shift := m - delN
	res.NodesRemoved, res.NodesAdded = int(delN), int(m)

	var into Doc // the arrays to write into; all nil without a destination
	slack := dst != nil
	if slack {
		into = *dst
	}
	nd := &Doc{
		name:  d.name,
		id:    d.id,
		shard: d.shard,
		c: cols{
			start:      identity(into.c.start, int(n+shift), slack),
			end:        gapped(into.c.end, d.c.end, d0, d1, m, slack),
			level:      gapped(into.c.level, d.c.level, d0, d1, m, slack),
			parent:     gapped(into.c.parent, d.c.parent, d0, d1, m, slack),
			firstChild: gapped(into.c.firstChild, d.c.firstChild, d0, d1, m, slack),
			kind:       gapped(into.c.kind, d.c.kind, d0, d1, m, slack),
			tag:        gapped(into.c.tag, d.c.tag, d0, d1, m, slack),
			val:        gapped(into.c.val, d.c.val, d0, d1, m, slack),
		},
		tags:    d.tags,
		vals:    d.vals,
		version: d.version + 1,
	}

	// Survivors. Level, kind, tag and value never change, and ordinals
	// below the splice point are stable, so the block copies above are
	// already right except for three things. Before the splice point only
	// the intervals containing it move: exactly P and its ancestors (any
	// other node before At ends before At). At or past the deleted range
	// everything shifts as a block: every interval end, every first child,
	// and every parent that is itself in the block.
	for a := P; a >= 0; a = d.c.parent[a] {
		nd.c.end[a] += shift
	}
	if nd.c.end[P] > P {
		nd.c.firstChild[P] = P + 1
	} else {
		nd.c.firstChild[P] = -1
	}
	if shift != 0 {
		s0 := d0 + m
		for j, e := range nd.c.end[s0:] {
			nd.c.end[s0+int32(j)] = e + shift
		}
		for j, p := range nd.c.parent[s0:] {
			if p >= d1 {
				nd.c.parent[s0+int32(j)] = p + shift
			}
		}
		for j, fc := range nd.c.firstChild[s0:] {
			if fc >= 0 {
				nd.c.firstChild[s0+int32(j)] = fc + shift
			}
		}
	}

	// Fragment: local preorder shifted to [At, At+m), levels rebased under
	// P, strings interned into the document's dictionaries.
	if m > 0 {
		var localTags, localVals []string
		localTagIdx := make(map[string]uint32)
		localValIdx := make(map[string]uint32)
		fragTag := make([]uint32, m)
		fragVal := make([]uint32, m) // local ID + 1; 0 = no content
		for k := int32(0); k < m; k++ {
			fn := &op.Frag.Nodes[k]
			lt, ok := localTagIdx[fn.Tag]
			if !ok {
				lt = uint32(len(localTags))
				localTags = append(localTags, fn.Tag)
				localTagIdx[fn.Tag] = lt
			}
			fragTag[k] = lt
			content, hasContent := "", false
			switch fn.Kind {
			case xmltree.Attribute, xmltree.Text:
				content, hasContent = fn.Value, true
			case xmltree.Element:
				if c := op.Frag.Content(k); c != "" {
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
				fragVal[k] = lv + 1
			}
		}
		gTag := d.tags.internAll(localTags)
		gVal := d.vals.internAll(localVals)
		baseLevel := d.c.level[P] + 1
		for k := int32(0); k < m; k++ {
			fn := &op.Frag.Nodes[k]
			j := d0 + k
			nd.c.end[j] = fn.ID.End + d0
			nd.c.level[j] = fn.ID.Level + baseLevel
			if fn.Parent < 0 {
				nd.c.parent[j] = P
			} else {
				nd.c.parent[j] = fn.Parent + d0
			}
			if fn.ID.End > k {
				nd.c.firstChild[j] = j + 1
			} else {
				nd.c.firstChild[j] = -1
			}
			nd.c.kind[j] = uint8(fn.Kind)
			nd.c.tag[j] = gTag[fragTag[k]]
			nd.c.val[j] = 0
			if v := fragVal[k]; v != 0 {
				nd.c.val[j] = gVal[v-1] + 1
			}
		}
	}

	// The parent-content invariant: P's element content (the concatenation
	// of its direct text children) must be unchanged, or the interned val
	// column and the value index entries for P would be stale.
	if textConcat(&nd.c, nd.vals, P) != textConcat(&d.c, d.vals, P) {
		return nil, res, fmt.Errorf("%w: parent %d", ErrSpliceContent, P)
	}

	// Incremental index maintenance: merge, never rebuild.
	nd.tagDir, nd.tagPost = spliceIndex(into.tagDir, into.tagPost, d.tagDir, d.tagPost, d.c.tag, nd.c.tag, 0, d0, d1, m, shift, slack)
	nd.valDir, nd.valPost = spliceIndex(into.valDir, into.valPost, d.valDir, d.valPost, d.c.val, nd.c.val, 1, d0, d1, m, shift, slack)

	// Incremental statistics: delta counts against the old catalog.
	if err := faultinject.Hit(faultinject.PointMutateStatsDelta); err != nil {
		return nil, res, err
	}
	nd.stats, res.StatsDeltas = spliceStats(into.stats, slack, d, nd, d0, d1, m)
	return nd, res, nil
}

// sized returns n elements of unspecified content: dst's array when it can
// hold them, otherwise a fresh one, exact or with an eighth of slack
// (BuildSpliceInto).
func sized[T any](dst []T, n int, slack bool) []T {
	switch {
	case cap(dst) >= n:
		return dst[:n]
	case slack:
		return make([]T, n, n+n/8)
	}
	return make([]T, n)
}

// gapped returns old[:d0] ++ m unspecified elements ++ old[d1:], in dst's
// array or a fresh one (sized): the block copy every column of a splice
// starts from.
func gapped[T any](dst, old []T, d0, d1, m int32, slack bool) []T {
	out := sized(dst, len(old)+int(m-(d1-d0)), slack)
	copy(out, old[:d0])
	copy(out[d0+m:], old[d1:])
	return out
}

// identity returns the start column of an n-node document: start == ordinal.
// A destination's start column is one already, as far as it goes.
func identity(dst []int32, n int, slack bool) []int32 {
	out, from := sized(dst, n, slack), 0
	if cap(dst) >= n {
		from = min(len(dst), n)
	}
	for i := from; i < n; i++ {
		out[i] = int32(i)
	}
	return out
}

// textConcat returns the concatenated direct text children of p.
func textConcat(c *cols, vals *dict, p int32) string {
	fc := c.firstChild[p]
	if fc < 0 {
		return ""
	}
	var sb strings.Builder
	for ch := fc; ch <= c.end[p]; ch = c.end[ch] + 1 {
		if xmltree.Kind(c.kind[ch]) == xmltree.Text {
			sb.WriteString(vals.str(c.val[ch] - 1))
		}
	}
	return sb.String()
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
// build would never create them. The directory and the postings array are
// written into dstDir's and dstPost's arrays where those are large enough
// (sized).
func spliceIndex(dstDir []dirEntry, dstPost []int32, oldDir []dirEntry, oldPost []int32, oldCol, newCol []uint32, bias uint32, d0, d1, m, shift int32, slack bool) ([]dirEntry, []int32) {
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

	dir := sized(dstDir, len(oldDir)+added, slack)[:0]
	post := sized(dstPost, len(oldPost)-removed+added, slack)
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

// statsDelta accumulates what the deleted and inserted nodes of one splice
// change in the catalog, as unsorted lists of single adjustments that
// spliceStats folds per key and merges into the old arrays. An adjustment
// is a record of the catalog whose counts are signed (two's complement:
// adding uint32(-1) subtracts one).
type statsDelta struct {
	tags        []tagDelta
	child, desc []pairRec
	// vals notes every (tag, value ID) the splice removed a holder of
	// (bit 0), added a holder of (bit 1), or both.
	vals map[[2]uint32]uint8
	// n counts the individual adjustments (SpliceResult.StatsDeltas).
	n    int
	seen []uint32
}

// tagDelta adjusts one tag's summary: signed counts, the level bounds of
// the inserted nodes carrying the tag in MinLevel/MaxLevel and those of the
// deleted ones in delMin/delMax. Bounds start out empty (min > max).
type tagDelta struct {
	tagStatRec
	delMin, delMax int32
}

func newTagDelta(tag uint32) tagDelta {
	return tagDelta{tagStatRec{Tag: tag, MinLevel: math.MaxInt32, MaxLevel: -1}, math.MaxInt32, -1}
}

// node records node i of c leaving (sign -1) or joining (sign +1) the
// document: its tag cardinality, its (parentTag, tag) child pair, its
// parent tag's child total, and one (ancestorTag, tag) pair per distinct
// ancestor tag.
func (a *statsDelta) node(c *cols, i int32, sign int32) {
	tag, level := c.tag[i], c.level[i]
	td := newTagDelta(tag)
	td.Count = uint32(sign)
	if sign < 0 {
		td.delMin, td.delMax = level, level
	} else {
		td.MinLevel, td.MaxLevel = level, level
	}
	p := c.parent[i] // never -1: the root cannot be spliced out
	ptag := c.tag[p]
	pd := newTagDelta(ptag)
	pd.Children = uint32(sign)
	a.tags = append(a.tags, td, pd)
	a.child = append(a.child, pairRec{ptag, tag, uint32(sign)})
	a.n += 3
	a.seen = a.seen[:0]
	for ; p >= 0; p = c.parent[p] {
		atag := c.tag[p]
		if slices.Contains(a.seen, atag) {
			continue
		}
		a.seen = append(a.seen, atag)
		a.desc = append(a.desc, pairRec{atag, tag, uint32(sign)})
		a.n++
	}
	if v := c.val[i]; v != 0 {
		bit := uint8(1)
		if sign > 0 {
			bit = 2
		}
		a.vals[[2]uint32{tag, v - 1}] |= bit
	}
}

// spliceStats produces the spliced document's catalog from the old one.
// Counts are sums, so every deleted node subtracts and every inserted node
// adds its adjustments (statsDelta.node); the adjustments are folded per
// key and merged into the old sorted arrays, whose untouched stretches are
// block copies. Distinct-value counts and level bounds are not sums, yet
// neither is recounted over a tag's postings when the splice cannot have
// changed it: a tag's distinct count moves only for a (tag, value) the
// splice removed or added, and then by whether another holder exists
// before and after (Doc.holds: the shorter of the two postings lists); a
// level bound only widens on insert, and is rescanned only when a deleted
// node sat on it. The arrays are built in those of dst, a destination's
// catalog, where they fit, and with keep the adjustment lists stay with the
// new catalog, emptied, for the splice that recycles it in turn. The second
// result counts the individual adjustments.
func spliceStats(dst *docStats, keep bool, old, nd *Doc, d0, d1, m int32) (*docStats, int) {
	if dst == nil {
		dst = new(docStats)
	}
	a := &dst.scratch
	a.tags, a.child, a.desc, a.n = a.tags[:0], a.child[:0], a.desc[:0], 0
	if a.vals == nil {
		a.vals = make(map[[2]uint32]uint8)
	}
	for i := d0; i < d1; i++ {
		a.node(&old.c, i, -1)
	}
	for j := d0; j < d0+m; j++ {
		a.node(&nd.c, j, +1)
	}
	// A (tag, value) the splice both removed and added had a holder before
	// and has one after; one it only added counts if the old version had
	// no holder, one it only removed if the new version has none left.
	for tv, bits := range a.vals {
		td := newTagDelta(tv[0])
		switch {
		case bits == 2 && !old.holds(tv[0], tv[1]):
			td.Distinct = 1
		case bits == 1 && !nd.holds(tv[0], tv[1]):
			td.Distinct--
		default:
			continue
		}
		a.tags = append(a.tags, td)
	}

	st := &docStats{
		rootTag: old.stats.rootTag,
		nodes:   old.stats.nodes + int(m) - int(d1-d0),
		tags:    mergeTagStats(dst.tags, old.stats.tags, a.tags, nd),
		child:   mergePairs(dst.child, old.stats.child, a.child),
		desc:    mergePairs(dst.desc, old.stats.desc, a.desc),
	}
	for _, ts := range st.tags {
		st.depth = max(st.depth, ts.MaxLevel)
	}
	if keep {
		clear(a.vals)
		st.scratch = *a
	}
	return st, a.n
}

// holds reports whether some node of d carries both the tag and the value
// (dictionary IDs), walking the shorter of the two postings lists.
func (d *Doc) holds(tag, val uint32) bool {
	vr := d.valueRefs(val)
	if len(vr) == 0 {
		return false
	}
	if tr := d.tagRefs(tag); len(tr) < len(vr) {
		for _, r := range tr {
			if d.c.val[r] == val+1 {
				return true
			}
		}
		return false
	}
	for _, r := range vr {
		if d.c.tag[r] == tag {
			return true
		}
	}
	return false
}

// mergeTagStats applies the adjustments to the old per-tag summaries
// (sorted by tag ID) and returns the new array, built in dst's when that is
// large enough; nd is the spliced document, already indexed, for the level
// rescans.
func mergeTagStats(dst, old []tagStatRec, deltas []tagDelta, nd *Doc) []tagStatRec {
	slices.SortFunc(deltas, func(a, b tagDelta) int { return cmp.Compare(a.Tag, b.Tag) })
	out := slices.Grow(dst[:0], len(old)+len(deltas))
	i := 0
	for k := 0; k < len(deltas); {
		dl := deltas[k]
		fold := func(o tagStatRec) {
			dl.Count += o.Count
			dl.Distinct += o.Distinct
			dl.Children += o.Children
			dl.MinLevel, dl.MaxLevel = min(dl.MinLevel, o.MinLevel), max(dl.MaxLevel, o.MaxLevel)
		}
		for k++; k < len(deltas) && deltas[k].Tag == dl.Tag; k++ {
			fold(deltas[k].tagStatRec)
			dl.delMin, dl.delMax = min(dl.delMin, deltas[k].delMin), max(dl.delMax, deltas[k].delMax)
		}
		j, known := slices.BinarySearchFunc(old[i:], dl.tagStatRec, cmpTagStat)
		out = append(out, old[i:i+j]...)
		i += j
		rescan := false
		if known {
			// A level bound widens with the inserted nodes, unless a
			// deleted node sat on it: then it has to be found again.
			rescan = dl.delMin == old[i].MinLevel || dl.delMax == old[i].MaxLevel
			fold(old[i])
			i++
		}
		r := dl.tagStatRec
		if r.Count == 0 {
			continue // the tag left the document
		}
		if rescan {
			refs := nd.tagRefs(r.Tag)
			r.MinLevel, r.MaxLevel = nd.c.level[refs[0]], nd.c.level[refs[0]]
			for _, ref := range refs[1:] {
				r.MinLevel = min(r.MinLevel, nd.c.level[ref])
				r.MaxLevel = max(r.MaxLevel, nd.c.level[ref])
			}
		}
		out = append(out, r)
	}
	return append(out, old[i:]...)
}

// mergePairs applies the adjustments to an old pair array (sorted by
// (Up, Down)) and returns the new one, built in dst's array when that is
// large enough; pairs whose count reaches zero are dropped, exactly as a
// fresh build would never create them.
func mergePairs(dst, old, deltas []pairRec) []pairRec {
	slices.SortFunc(deltas, cmpPair)
	out := slices.Grow(dst[:0], len(old)+len(deltas))
	i := 0
	for k := 0; k < len(deltas); {
		r := deltas[k]
		for k++; k < len(deltas) && cmpPair(deltas[k], r) == 0; k++ {
			r.Count += deltas[k].Count
		}
		j, known := slices.BinarySearchFunc(old[i:], r, cmpPair)
		out = append(out, old[i:i+j]...)
		i += j
		if known {
			r.Count += old[i].Count
			i++
		}
		if r.Count != 0 {
			out = append(out, r)
		}
	}
	return append(out, old[i:]...)
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
	if s.pinned {
		return fmt.Errorf("store: commit into a pinned (read-only) view")
	}
	if err := faultinject.Hit(faultinject.PointMutateCommit); err != nil {
		return err
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	cur := s.dir.Load()
	if int(old.id) >= len(cur.docs) || cur.docs[old.id] != old {
		return fmt.Errorf("store: document %q: %w", old.name, ErrVersionConflict)
	}
	if fn := s.commitLog.Load(); fn != nil && payload != nil {
		if err := (*fn)(s.updateGen.Load()+1, payload); err != nil {
			return fmt.Errorf("%w: document %q: %w", ErrDurability, old.name, err)
		}
	}
	next := &directory{
		docs:   make([]*Doc, len(cur.docs)),
		byName: cur.byName, // names and IDs are untouched by a commit
	}
	copy(next.docs, cur.docs)
	next.docs[old.id] = nd
	s.dir.Store(next)
	s.updateGen.Add(1)
	s.superseded.Add(1)
	// The finalizer watches the version's catalog, not the Doc: a finalizer
	// keeps its object and everything it references alive for one more
	// collection cycle, and the Doc references the columns. The catalog is
	// a few kilobytes that belong to exactly this version and become
	// unreachable with it. (With updates allocating little besides the next
	// version, versions held back by their finalizers were most of the heap.)
	runtime.SetFinalizer(old.stats, func(*docStats) { s.superseded.Add(-1) })
	return nil
}
