package store

import (
	"fmt"
	"sort"
	"strings"

	"tlc/internal/xmltree"
)

// Fingerprint renders a canonical, dictionary-independent dump of the
// document: columns with strings resolved, and index postings grouped by
// resolved name in sorted order. Two documents with equal fingerprints are
// semantically identical — same tree, same indexes — even
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
			i, d.c.kind[i], d.Start(i), d.c.end[i], d.c.level[i],
			d.c.parent[i], d.FirstChild(i), d.Tag(i), d.Content(i))
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

	return sb.String()
}

// validateSplice is a structural self-check used by tests: the intervals
// nest into one tree (the check snapshot open makes), the parent and level
// columns are the ones they imply, and the indexes agree with the columns;
// it returns the first violation.
func (d *Doc) validateSplice() error {
	n := int32(d.Len())
	if n == 0 {
		return fmt.Errorf("empty document")
	}
	parent, level := make([]int32, n), make([]int32, n)
	if err := nest(d.c.end, parent, level); err != nil {
		return err
	}
	for i := int32(0); i < n; i++ {
		if d.c.parent[i] != parent[i] || d.c.level[i] != level[i] {
			return fmt.Errorf("node %d: parent %d at level %d, its interval says %d at %d",
				i, d.c.parent[i], d.c.level[i], parent[i], level[i])
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
