package store

// This file implements the statistics catalog: per-document, per-tag
// summaries derived from the columns at load time (and when a snapshot
// opens or a replay publishes), carried forward across live updates
// (mutate.go) and served to the cost-based planner (internal/planner).
// Catalog probes are free — no access counters are touched — because a
// real system keeps these numbers in its catalog, not in the data pages.
//
// The summaries are keyed by dictionary IDs (the same IDs the node
// columns hold); the string-keyed Catalog API resolves names through the
// owning document's dictionaries.
//
// The collected statistics are:
//
//   - tag cardinality: number of nodes per tag class (elements plain,
//     attributes with "@", text as "#text");
//   - distinct-value counts: number of distinct content values per tag
//     class, the basis of equality-predicate and value-join selectivity;
//   - child fanout: per (parentTag, childTag) pair, the number of
//     childTag nodes whose parent carries parentTag — which makes
//     E[children per parent] an exact figure, not a guess;
//   - tag co-occurrence depth: per (ancestorTag, descendantTag) pair,
//     the number of descendantTag nodes with at least one ancestorTag
//     ancestor — the "//" analogue of the child-fanout pair counts;
//   - per-tag level bounds and total children (average fanout).

import (
	"cmp"
	"slices"
)

// TagStats summarizes one tag class within one document.
type TagStats struct {
	// Count is the number of nodes carrying the tag.
	Count int
	// Distinct is the number of distinct content values over those nodes
	// (attribute values, text content, element text concatenations).
	Distinct int
	// Children is the total number of child nodes under nodes of this
	// tag; Children/Count is the average fanout.
	Children int
	// MinLevel and MaxLevel bound the depth at which the tag occurs.
	MinLevel, MaxLevel int32
}

// tagStatRec is one tag's summary keyed by tag dictionary ID, and pairRec
// one (parent, child) or (ancestor, descendant) count: flat integer
// structs in arrays sorted by ID, so carrying the catalog across an update
// is a block copy with the touched entries merged in (spliceStats) — never
// a map copied entry by entry.
type tagStatRec struct {
	Tag, Count, Distinct, Children uint32
	MinLevel, MaxLevel             int32
}

type pairRec struct{ Up, Down, Count uint32 }

func cmpTagStat(a, b tagStatRec) int { return cmp.Compare(a.Tag, b.Tag) }

func cmpPair(a, b pairRec) int {
	if c := cmp.Compare(a.Up, b.Up); c != 0 {
		return c
	}
	return cmp.Compare(a.Down, b.Down)
}

// docStats holds the per-document catalog: derived from the columns and
// carried forward by every live splice. Like
// the columns it is immutable once its document version is published.
type docStats struct {
	// rootTag is the tag dictionary ID of the document root.
	rootTag uint32
	nodes   int
	depth   int32
	// tags is sorted by Tag and holds only tags the document contains.
	tags []tagStatRec
	// child counts childTag nodes per parentTag; desc counts descTag nodes
	// having at least one ancTag ancestor. Both are sorted by (Up, Down)
	// and hold no zero counts.
	child, desc []pairRec
}

// tag returns the summary of one tag ID (zero value when absent). The
// planner probes the catalog many times per plan, so the two lookups are
// plain loops over the sorted arrays rather than generic searches.
func (st *docStats) tag(id uint32) tagStatRec {
	lo, hi := 0, len(st.tags)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); st.tags[mid].Tag < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st.tags) && st.tags[lo].Tag == id {
		return st.tags[lo]
	}
	return tagStatRec{}
}

// pairCount looks one pair up in a sorted pair array.
func pairCount(pairs []pairRec, up, down uint32) int {
	key := uint64(up)<<32 | uint64(down)
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p := pairs[mid]; uint64(p.Up)<<32|uint64(p.Down) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pairs) && pairs[lo].Up == up && pairs[lo].Down == down {
		return int(pairs[lo].Count)
	}
	return 0
}

// buildDocStats computes the catalog of a version from its columns and the
// postings derive has just built from them, tag by tag in ID order, so
// every array comes out sorted and nothing is looked up in a map. A tag's
// count is its postings length, its level bounds and children are read at
// its postings, its child pairs come from its nodes' children and its
// descendant pairs from the nodes its outermost intervals cover (a node
// inside several of its intervals lies inside the outermost one, which is
// what "at least one ancestor" counts). Distinct is read off the value
// postings: each value counts once for every tag among its holders.
func buildDocStats(d *Doc) *docStats {
	c := &d.c
	st := &docStats{rootTag: c.tag[0], nodes: d.Len(), tags: make([]tagStatRec, 0, len(d.tagDir))}
	tagIDs := d.tagDir[len(d.tagDir)-1].id + 1
	distinct, last := make([]uint32, tagIDs), make([]uint32, tagIDs)
	for _, e := range d.valDir {
		for _, r := range d.valPost[e.off : e.off+e.n] {
			if t := c.tag[r]; last[t] != e.id+1 {
				last[t] = e.id + 1
				distinct[t]++
			}
		}
	}
	// The pair counts of one upper tag, by lower tag, and the lower tags
	// counted so far.
	counts, downs := make([]uint32, tagIDs), make([]uint32, 0, 64)
	pairs := func(up uint32, out []pairRec) []pairRec {
		slices.Sort(downs)
		for _, t := range downs {
			out = append(out, pairRec{up, t, counts[t]})
			counts[t] = 0
		}
		downs = downs[:0]
		return out
	}
	for _, e := range d.tagDir {
		refs := d.tagPost[e.off : e.off+e.n]
		ts := tagStatRec{Tag: e.id, Count: e.n, Distinct: distinct[e.id], MinLevel: c.level[refs[0]], MaxLevel: c.level[refs[0]]}
		for _, o := range refs {
			ts.MinLevel, ts.MaxLevel = min(ts.MinLevel, c.level[o]), max(ts.MaxLevel, c.level[o])
			for ch := o + 1; ch <= c.end[o]; ch = c.end[ch] + 1 {
				t := c.tag[ch]
				if counts[t] == 0 {
					downs = append(downs, t)
				}
				counts[t]++
				ts.Children++
			}
		}
		st.child = pairs(e.id, st.child)
		for i := 0; i < len(refs); {
			end := c.end[refs[i]]
			for _, t := range c.tag[refs[i]+1 : end+1] {
				if counts[t] == 0 {
					downs = append(downs, t)
				}
				counts[t]++
			}
			for i < len(refs) && refs[i] <= end {
				i++
			}
		}
		st.desc = pairs(e.id, st.desc)
		st.tags = append(st.tags, ts)
		st.depth = max(st.depth, ts.MaxLevel)
	}
	return st
}

// tagStats resolves a tag name against one document's summary (zero value
// when the tag does not occur in the document's dictionary or summary).
func (d *Doc) tagStats(tag string) TagStats {
	id, ok := d.tags.lookup(tag)
	if !ok {
		return TagStats{}
	}
	r := d.stats.tag(id)
	return TagStats{
		Count: int(r.Count), Distinct: int(r.Distinct), Children: int(r.Children),
		MinLevel: r.MinLevel, MaxLevel: r.MaxLevel,
	}
}

// Catalog is a read-only view of the statistics of a store.
// Every query method takes a document scope: nil means "all loaded
// documents", the conservative scope for patterns whose document is not
// statically known (extension selects anchored at a logical class).
//
// Each document's summary lives with the document version, scoped figures
// are summed across the scope's documents, and a catalog probe resolves
// documents through the same lock-free directory the data reads use — so
// planning never blocks on a load, it just plans against the snapshot it
// started from.
type Catalog struct {
	s *Store
}

// Catalog returns the statistics catalog of the store. The view is safe
// for concurrent use; each probe reads the document versions current when
// it runs.
func (s *Store) Catalog() Catalog { return Catalog{s: s} }

// Docs returns the IDs of all loaded documents.
func (c Catalog) Docs() []DocID {
	n := c.s.NumDocs()
	out := make([]DocID, n)
	for i := range out {
		out[i] = DocID(i)
	}
	return out
}

// scope resolves nil to all documents.
func (c Catalog) scope(docs []DocID) []DocID {
	if docs == nil {
		return c.Docs()
	}
	return docs
}

// RootTag returns the tag of the document's root element.
func (c Catalog) RootTag(id DocID) string {
	d := c.s.entry(id)
	return d.tags.str(d.stats.rootTag)
}

// NodeCount returns the total number of stored nodes in scope.
func (c Catalog) NodeCount(docs []DocID) int {
	n := 0
	for _, id := range c.scope(docs) {
		n += c.s.entry(id).stats.nodes
	}
	return n
}

// Depth returns the maximum node level in scope.
func (c Catalog) Depth(docs []DocID) int {
	d := int32(0)
	for _, id := range c.scope(docs) {
		if s := c.s.entry(id).stats.depth; s > d {
			d = s
		}
	}
	return int(d)
}

// TagCount returns the number of nodes carrying tag in scope.
func (c Catalog) TagCount(docs []DocID, tag string) int {
	n := 0
	for _, id := range c.scope(docs) {
		n += c.s.entry(id).tagStats(tag).Count
	}
	return n
}

// DistinctValues returns the number of distinct content values among
// nodes carrying tag in scope (summed across documents — values are not
// deduplicated across document boundaries).
func (c Catalog) DistinctValues(docs []DocID, tag string) int {
	n := 0
	for _, id := range c.scope(docs) {
		n += c.s.entry(id).tagStats(tag).Distinct
	}
	return n
}

// AvgFanout returns the average number of children per node of tag in
// scope, 0 when the tag does not occur.
func (c Catalog) AvgFanout(docs []DocID, tag string) float64 {
	count, children := 0, 0
	for _, id := range c.scope(docs) {
		ts := c.s.entry(id).tagStats(tag)
		count += ts.Count
		children += ts.Children
	}
	if count == 0 {
		return 0
	}
	return float64(children) / float64(count)
}

// ChildPerParent returns E[number of childTag children per parentTag
// node] in scope — exact, from the pair counts.
func (c Catalog) ChildPerParent(docs []DocID, parentTag, childTag string) float64 {
	parents, pairs := 0, 0
	for _, id := range c.scope(docs) {
		d := c.s.entry(id)
		parents += d.tagStats(parentTag).Count
		if up, ok := d.tags.lookup(parentTag); ok {
			if down, ok := d.tags.lookup(childTag); ok {
				pairs += pairCount(d.stats.child, up, down)
			}
		}
	}
	if parents == 0 {
		return 0
	}
	return float64(pairs) / float64(parents)
}

// DescPerAncestor returns E[number of descTag descendants per ancTag
// node] in scope, from the co-occurrence counts. (Each descTag
// node is counted once per distinct ancestor tag, so for recursive tags
// the figure is a lower bound on the pair count and still the right
// per-ancestor average under uniformity.)
func (c Catalog) DescPerAncestor(docs []DocID, ancTag, descTag string) float64 {
	ancs, pairs := 0, 0
	for _, id := range c.scope(docs) {
		d := c.s.entry(id)
		ancs += d.tagStats(ancTag).Count
		if up, ok := d.tags.lookup(ancTag); ok {
			if down, ok := d.tags.lookup(descTag); ok {
				pairs += pairCount(d.stats.desc, up, down)
			}
		}
	}
	if ancs == 0 {
		return 0
	}
	return float64(pairs) / float64(ancs)
}

// Tag returns the full per-tag summary for one document (zero value when
// the tag does not occur). Exposed for tests and tooling.
func (c Catalog) Tag(id DocID, tag string) TagStats { return c.s.entry(id).tagStats(tag) }
