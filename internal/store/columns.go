package store

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"tlc/internal/xmltree"
)

// This file implements the columnar node table. A document is stored as a
// struct of flat arrays ("columns"), one entry per node in document
// (pre-order) order, instead of an arena of pointer-rich node structs:
//
//	ordinal   0     1     2     3    ...
//	end     [ 9  |  4  |  2  |  3  | ...]  int32   interval end
//	level   [ 0  |  1  |  2  |  2  | ...]  int32   depth from the root
//	parent  [-1  |  0  |  1  |  1  | ...]  int32   parent ordinal (-1 at root)
//	kind    [ E  |  E  |  A  |  T  | ...]  uint8   Element / Attribute / Text
//	tag     [ 5  |  9  |  2  |  0  | ...]  uint32  tag dictionary ID
//	val     [ 0  |  7  |  3  |  3  | ...]  uint32  value dictionary ID + 1
//
// The interval start is the ordinal itself and the first child, in
// preorder, is the next ordinal when the interval holds more than its node
// (end > ordinal), so neither is stored: Start and FirstChild compute them.
// Parent and level are functions of end as well — one pass over it rebuilds
// them (nest) — and are kept because the engines and the splice read them
// on every step; a snapshot stores neither (snapshot.go).
//
// Tags and values are dictionary-encoded: the columns hold dense integer
// IDs, the strings live once in the store's interned dictionaries
// (dict.go). The val column stores dictID+1 so that 0 means "no content";
// attributes and text nodes always carry content (possibly the empty
// string), elements only when the concatenation of their direct text
// children is non-empty — the same convention the value index has always
// used.
//
// The tag and value indexes are columns too: a postings array of node
// ordinals grouped by dictionary ID, plus a directory of (id, offset,
// count) entries sorted by ID for binary-search lookup. Because the
// paper's interval IDs make every structural decision position-based, the
// evaluation engines run straight over these arrays; and because every
// array is flat integers (strings reduced to dictionary offsets), the
// stored columns serialize to — and map back from — a snapshot file
// without any decoding (snapshot.go).

// cols is the struct-of-arrays node table of one document.
type cols struct {
	end    []int32
	level  []int32
	parent []int32
	kind   []uint8
	tag    []uint32
	val    []uint32
}

// dirEntry is one tag- or value-index directory entry: the postings for
// dictionary ID id are post[off : off+n]. Directories are sorted by id.
type dirEntry struct {
	id  uint32
	off uint32
	n   uint32
}

// Doc is the columnar view of one loaded document. All accessors are
// read-only, lock-free and safe for concurrent use; none of them touch
// the store's access counters (counted access goes through the Store
// methods). For snapshot-opened documents the stored columns and the
// dictionary strings are views into the mapped file, and everything else
// is derived when it opens — the accessors are identical either way.
type Doc struct {
	name string
	id   DocID
	c    cols
	// tagDir/valDir index the postings arrays, sorted by dictionary ID.
	tagDir, valDir []dirEntry
	// tagPost/valPost hold node ordinals grouped by dictionary ID,
	// ascending within each group.
	tagPost, valPost []int32
	// tags/vals resolve the dictionary IDs of this document's columns.
	tags, vals *dict
	// life is this version's finalizer anchor (see lifetime).
	life *lifetime
	// version is the document's MVCC version: 1 for a freshly loaded
	// document, incremented by every splice (mutate.go). A published Doc is
	// immutable; a mutation builds a whole new Doc with version+1 and swaps
	// the directory entry, so readers holding the old version keep a
	// consistent view.
	version uint64
	// private marks a version SplicePrivate made and CommitPrivate has not
	// published: nobody else sees it, SplicePrivate edits its columns in
	// place, and it has no postings yet.
	private bool
}

// lifetime is allocated once per version and referenced by that version
// only. It becomes unreachable with the version and references no
// columns, so the extra collection cycle a finalizer keeps its object
// alive for holds nothing else back: commit hangs the finalizer that
// counts a superseded version released on it. The pointer field also keeps
// it out of the tiny allocator, whose shared blocks can delay a finalizer.
type lifetime struct{ superseded *atomic.Int64 }

// Name returns the document name under which the document was loaded.
func (d *Doc) Name() string { return d.name }

// DocID returns the document's store-wide ID.
func (d *Doc) DocID() DocID { return d.id }

// Version returns the document's MVCC version (1 for a fresh load; each
// committed mutation increments it).
func (d *Doc) Version() uint64 { return d.version }

// Len returns the number of nodes in the document.
func (d *Doc) Len() int { return len(d.c.end) }

// Root returns the ordinal of the document root element (always 0).
func (d *Doc) Root() int32 { return 0 }

// Start returns the interval start of the node (== its ordinal).
func (d *Doc) Start(ord int32) int32 { return ord }

// End returns the interval end of the node: the ordinal of the last node
// in its subtree.
func (d *Doc) End(ord int32) int32 { return d.c.end[ord] }

// Level returns the node's depth (root = 0).
func (d *Doc) Level(ord int32) int32 { return d.c.level[ord] }

// Parent returns the parent ordinal, -1 at the root.
func (d *Doc) Parent(ord int32) int32 { return d.c.parent[ord] }

// FirstChild returns the ordinal of the node's first child, -1 for leaves:
// in preorder the first child is the next node, if the interval holds one.
func (d *Doc) FirstChild(ord int32) int32 {
	if d.c.end[ord] > ord {
		return ord + 1
	}
	return -1
}

// Kind returns the node kind (Element, Attribute or Text).
func (d *Doc) Kind(ord int32) xmltree.Kind { return xmltree.Kind(d.c.kind[ord]) }

// ID returns the node's interval identifier.
func (d *Doc) ID(ord int32) xmltree.NodeID {
	return xmltree.NodeID{Start: ord, End: d.c.end[ord], Level: d.c.level[ord]}
}

// TagID returns the tag dictionary ID of the node.
func (d *Doc) TagID(ord int32) uint32 { return d.c.tag[ord] }

// Tag returns the node's tag (elements plain, attributes with "@", text
// nodes as "#text").
func (d *Doc) Tag(ord int32) string { return d.tags.str(d.c.tag[ord]) }

// Value returns the literal node value: the content for attributes and
// text nodes, "" for elements — the same field the old node records
// carried.
func (d *Doc) Value(ord int32) string {
	if xmltree.Kind(d.c.kind[ord]) == xmltree.Element {
		return ""
	}
	return d.vals.str(d.c.val[ord] - 1)
}

// Content returns the textual content of a node: the value itself for
// attributes and text nodes, the concatenation of the direct text
// children for elements. Unlike the old arena — which re-concatenated on
// every call — element content is interned at load time, so this is a
// single column read plus a dictionary lookup.
func (d *Doc) Content(ord int32) string {
	v := d.c.val[ord]
	if v == 0 {
		return ""
	}
	return d.vals.str(v - 1)
}

// Children returns the ordinals of the direct children of the node, in
// document order.
func (d *Doc) Children(ord int32) []int32 {
	var kids []int32
	for c, end := ord+1, d.c.end[ord]; c <= end; c = d.c.end[c] + 1 {
		kids = append(kids, c)
	}
	return kids
}

// SubtreeSize returns the number of nodes in the subtree rooted at ord,
// including the root itself.
func (d *Doc) SubtreeSize(ord int32) int {
	return int(d.c.end[ord] - ord + 1)
}

// findDir binary-searches a directory for a dictionary ID.
func findDir(dir []dirEntry, id uint32) (dirEntry, bool) {
	i := sort.Search(len(dir), func(i int) bool { return dir[i].id >= id })
	if i < len(dir) && dir[i].id == id {
		return dir[i], true
	}
	return dirEntry{}, false
}

// tagRefs returns the postings of a tag dictionary ID.
func (d *Doc) tagRefs(id uint32) []int32 {
	e, ok := findDir(d.tagDir, id)
	if !ok {
		return nil
	}
	return d.tagPost[e.off : e.off+e.n : e.off+e.n]
}

// valueRefs returns the postings of a value dictionary ID.
func (d *Doc) valueRefs(id uint32) []int32 {
	e, ok := findDir(d.valDir, id)
	if !ok {
		return nil
	}
	return d.valPost[e.off : e.off+e.n : e.off+e.n]
}

// tagRefsByName resolves a tag through the dictionary and returns its
// postings (nil for tags the document does not contain).
func (d *Doc) tagRefsByName(tag string) []int32 {
	id, ok := d.tags.lookup(tag)
	if !ok {
		return nil
	}
	return d.tagRefs(id)
}

// valueRefsByName resolves a content value through the dictionary and
// returns its postings.
func (d *Doc) valueRefsByName(v string) []int32 {
	id, ok := d.vals.lookup(v)
	if !ok {
		return nil
	}
	return d.valueRefs(id)
}

// XML returns the subtree rooted at ord as XML text, byte-identical to
// the xmltree serializer the store used before the columnar layout.
func (d *Doc) XML(ord int32) string {
	var sb strings.Builder
	d.appendXML(&sb, ord)
	return sb.String()
}

func (d *Doc) appendXML(sb *strings.Builder, ord int32) {
	switch xmltree.Kind(d.c.kind[ord]) {
	case xmltree.Text:
		xmltree.EscapeXML(sb, d.Value(ord))
		return
	case xmltree.Attribute:
		sb.WriteString(d.Tag(ord)[1:])
		sb.WriteString(`="`)
		xmltree.EscapeXML(sb, d.Value(ord))
		sb.WriteString(`"`)
		return
	}
	sb.WriteByte('<')
	tag := d.Tag(ord)
	sb.WriteString(tag)
	// First pass over the children: attributes inline on the start tag.
	end := d.c.end[ord]
	hasBody := false
	for c := ord + 1; c <= end; c = d.c.end[c] + 1 {
		if xmltree.Kind(d.c.kind[c]) == xmltree.Attribute {
			sb.WriteByte(' ')
			sb.WriteString(d.Tag(c)[1:])
			sb.WriteString(`="`)
			xmltree.EscapeXML(sb, d.Value(c))
			sb.WriteString(`"`)
		} else {
			hasBody = true
		}
	}
	if !hasBody {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	for c := ord + 1; c <= end; c = d.c.end[c] + 1 {
		if xmltree.Kind(d.c.kind[c]) != xmltree.Attribute {
			d.appendXML(sb, c)
		}
	}
	sb.WriteString("</")
	sb.WriteString(tag)
	sb.WriteByte('>')
}

// buildDoc converts a parsed xmltree arena into the columnar layout,
// interning its strings into the store's dictionaries, and derives the rest.
// The xmltree.Document is not retained: after conversion the columns are
// the only representation.
func buildDoc(doc *xmltree.Document, id DocID, tags, vals *dict) *Doc {
	n := len(doc.Nodes)
	d := &Doc{
		name: doc.Name,
		id:   id,
		c: cols{
			end:    make([]int32, n),
			level:  make([]int32, n),
			parent: make([]int32, n),
			kind:   make([]uint8, n),
			tag:    make([]uint32, n),
			val:    make([]uint32, n),
		},
		tags:    tags,
		vals:    vals,
		version: 1,
		life:    new(lifetime),
	}

	// Pass 1: fill the columns with document-local dictionary IDs and
	// collect the local string tables.
	var localTags, localVals []string
	localTagIdx := make(map[string]uint32)
	localValIdx := make(map[string]uint32)
	for i := range doc.Nodes {
		nd := &doc.Nodes[i]
		d.c.end[i] = nd.ID.End
		d.c.level[i] = nd.ID.Level
		d.c.parent[i] = nd.Parent
		d.c.kind[i] = uint8(nd.Kind)

		lt, ok := localTagIdx[nd.Tag]
		if !ok {
			lt = uint32(len(localTags))
			localTags = append(localTags, nd.Tag)
			localTagIdx[nd.Tag] = lt
		}
		d.c.tag[i] = lt

		content, hasContent := "", false
		switch nd.Kind {
		case xmltree.Attribute, xmltree.Text:
			content, hasContent = nd.Value, true
		case xmltree.Element:
			if c := doc.Content(int32(i)); c != "" {
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
			d.c.val[i] = lv + 1
		}
	}

	// Pass 2: intern the local tables into the store's dictionaries and
	// remap the columns from local to global IDs.
	gTag := tags.internAll(localTags)
	gVal := vals.internAll(localVals)
	for i := range d.c.tag {
		d.c.tag[i] = gTag[d.c.tag[i]]
		if v := d.c.val[i]; v != 0 {
			d.c.val[i] = gVal[v-1] + 1
		}
	}
	derive(d)
	return d
}

// derive builds what a version holds besides its columns — the tag and
// value postings indexes — from the columns alone: the interval
// identifiers make every structural fact a function of (start, end,
// level), so all of it is derived data. Load runs it on a parsed document,
// snapshot open on the columns it maps, and CommitPrivate on a version a
// replay spliced in place; a live splice carries the same data forward
// incrementally instead, and must agree with it.
func derive(d *Doc) {
	d.tagDir, d.tagPost = buildPostings(d.c.tag, 0)
	d.valDir, d.valPost = buildPostings(d.c.val, 1)
}

// nest fills the parent and level columns from end, and fails unless end
// describes one tree in preorder: every interval ends inside the document
// and no earlier than its node, and lies inside its parent's. The parent of
// node i is the innermost interval holding it, found by walking up from
// node i-1 — whose ancestors, with i-1 itself, include all of i's — so one
// pass covers the document. Snapshot open rebuilds the two columns with
// it; validateSplice checks them against it.
func nest(end, parent, level []int32) error {
	n := int32(len(end))
	for i := int32(0); i < n; i++ {
		e := end[i]
		if e < i || e >= n {
			return fmt.Errorf("node %d: end %d outside [%d, %d)", i, e, i, n)
		}
		p := i - 1
		for p >= 0 && end[p] < i {
			p = parent[p]
		}
		switch {
		case p >= 0 && e > end[p]:
			return fmt.Errorf("node %d: interval [%d, %d] overruns parent %d ending at %d", i, i, e, p, end[p])
		case p >= 0:
			parent[i], level[i] = p, level[p]+1
		case i > 0:
			return fmt.Errorf("node %d lies outside the root interval", i)
		default:
			parent[i], level[i] = -1, 0
		}
	}
	return nil
}

// buildPostings groups the ordinals of col by dictionary ID with one
// counting pass, so the directory comes out sorted by ID and each list
// ascending. bias is the column's ID offset (1 for the value column, where
// 0 means "no entry").
func buildPostings(col []uint32, bias uint32) ([]dirEntry, []int32) {
	var top uint32
	for _, v := range col {
		top = max(top, v)
	}
	at := make([]uint32, top+1) // per column value: its count, then its next slot
	for _, v := range col {
		at[v]++
	}
	var dir []dirEntry
	off := uint32(0)
	for v := bias; v <= top; v++ {
		if n := at[v]; n > 0 {
			dir = append(dir, dirEntry{id: v - bias, off: off, n: n})
			at[v] = off
			off += n
		}
	}
	post := make([]int32, off)
	for i, v := range col {
		if v >= bias {
			post[at[v]] = int32(i)
			at[v]++
		}
	}
	return dir, post
}
