package store

import (
	"fmt"
	"sort"
	"strings"

	"tlc/internal/xmltree"
)

// Fingerprint renders a canonical, dictionary-independent dump of the
// document: columns with strings resolved, index postings grouped by
// resolved name in sorted order, and the statistics catalog with tags and
// pairs resolved and sorted. Two documents with equal fingerprints are
// semantically identical — same tree, same indexes, same catalog — even
// when their dictionary IDs or postings-array packing differ (a mutated
// document interns fragment strings in commit order; a fresh load interns
// in first-occurrence order). The mutation oracle tests compare a spliced
// store against a rebuild-from-XML via this.
func (d *Doc) Fingerprint() string {
	var sb strings.Builder
	n := int32(d.Len())
	fmt.Fprintf(&sb, "doc %s nodes=%d\n", d.name, n)
	for i := int32(0); i < n; i++ {
		fmt.Fprintf(&sb, "n%d k=%d s=%d e=%d l=%d p=%d fc=%d tag=%s val=%q\n",
			i, d.c.kind[i], d.c.start[i], d.c.end[i], d.c.level[i],
			d.c.parent[i], d.c.firstChild[i], d.Tag(i), d.Content(i))
	}

	writeIndex := func(label string, dir []dirEntry, dict *dict, refs func(uint32) []int32) {
		names := make([]string, 0, len(dir))
		byName := make(map[string][]int32, len(dir))
		for _, e := range dir {
			name := dict.str(e.id)
			names = append(names, name)
			byName[name] = refs(e.id)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %q ->", label, name)
			for _, r := range byName[name] {
				fmt.Fprintf(&sb, " %d", r)
			}
			sb.WriteByte('\n')
		}
	}
	writeIndex("tagidx", d.tagDir, d.tags, d.tagRefs)
	writeIndex("validx", d.valDir, d.vals, d.valueRefs)

	st := d.stats
	fmt.Fprintf(&sb, "stats root=%s nodes=%d depth=%d\n", d.tags.str(st.rootTag), st.nodes, st.depth)
	lines := make([]string, 0, len(st.tags))
	for _, ts := range st.tags {
		lines = append(lines, fmt.Sprintf("tag %q count=%d distinct=%d children=%d lvl=[%d,%d]",
			d.tags.str(ts.Tag), ts.Count, ts.Distinct, ts.Children, ts.MinLevel, ts.MaxLevel))
	}
	writeSorted := func(lines []string) {
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	writeSorted(lines)
	writePairs := func(label string, pairs []pairRec) {
		lines := make([]string, 0, len(pairs))
		for _, p := range pairs {
			lines = append(lines, fmt.Sprintf("%s %q %q = %d", label, d.tags.str(p.Up), d.tags.str(p.Down), p.Count))
		}
		writeSorted(lines)
	}
	writePairs("child", st.child)
	writePairs("desc", st.desc)
	return sb.String()
}

// validateSplice is a structural self-check used by tests: it re-derives
// the invariants decodeShard enforces (interval containment, levels,
// firstChild) plus index/column agreement, returning the first violation.
func (d *Doc) validateSplice() error {
	n := int32(d.Len())
	if n == 0 {
		return fmt.Errorf("empty document")
	}
	if d.c.parent[0] != -1 || d.c.end[0] != n-1 || d.c.level[0] != 0 {
		return fmt.Errorf("bad root record")
	}
	for i := int32(0); i < n; i++ {
		if d.c.start[i] != i {
			return fmt.Errorf("node %d: start %d", i, d.c.start[i])
		}
		if d.c.end[i] < i || d.c.end[i] >= n {
			return fmt.Errorf("node %d: end %d", i, d.c.end[i])
		}
		if p := d.c.parent[i]; i > 0 {
			if p < 0 || p >= i {
				return fmt.Errorf("node %d: parent %d", i, p)
			}
			if i > d.c.end[p] {
				return fmt.Errorf("node %d outside parent %d interval", i, p)
			}
			if d.c.level[i] != d.c.level[p]+1 {
				return fmt.Errorf("node %d: level %d under parent level %d", i, d.c.level[i], d.c.level[p])
			}
		}
		want := int32(-1)
		if d.c.end[i] > i {
			want = i + 1
		}
		if d.c.firstChild[i] != want {
			return fmt.Errorf("node %d: firstChild %d, want %d", i, d.c.firstChild[i], want)
		}
	}
	// Index agreement: every node appears exactly once under its tag, and
	// under its value when it has content.
	for i := int32(0); i < n; i++ {
		if !containsOrd(d.tagRefs(d.c.tag[i]), i) {
			return fmt.Errorf("node %d missing from tag index", i)
		}
		if v := d.c.val[i]; v != 0 {
			if !containsOrd(d.valueRefs(v-1), i) {
				return fmt.Errorf("node %d missing from value index", i)
			}
		}
	}
	return nil
}

func containsOrd(refs []int32, ord int32) bool {
	i := sort.Search(len(refs), func(k int) bool { return refs[k] >= ord })
	return i < len(refs) && refs[i] == ord
}

// ParseFragment parses an XML fragment (a single element) into the
// preorder form SpliceOp.Frag takes. Exposed for the mutate package and
// tests.
func ParseFragment(xml string) (*xmltree.Document, error) {
	return xmltree.ParseString("#fragment", xml)
}

// TextFragment builds a single-text-node fragment carrying value; the
// mutate package inserts it when a deletion makes two text siblings
// adjacent and they must coalesce (exactly what re-parsing the serialized
// document would do).
func TextFragment(value string) *xmltree.Document {
	return &xmltree.Document{
		Name: "#fragment",
		Nodes: []xmltree.Node{{
			ID:         xmltree.NodeID{Start: 0, End: 0, Level: 0},
			Kind:       xmltree.Text,
			Tag:        xmltree.TextTag,
			Value:      value,
			Parent:     -1,
			FirstChild: -1,
		}},
	}
}
