package seq

import (
	"strings"
	"unsafe"

	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// Content returns the textual content of node id: element content is read
// through the store for store references (concatenated direct text
// children) and computed from temporary kids otherwise; attributes and
// text nodes return their value directly.
func (a *Arena) Content(st *store.Store, id NodeID) string {
	n := a.Node(id)
	switch {
	case n.IsStore():
		return st.Content(n.Doc, n.Ord)
	case n.Kind != xmltree.Element:
		return a.textAt(n.val)
	}
	var sb strings.Builder
	for _, k := range a.Kids(id) {
		if a.Node(k).Kind == xmltree.Text {
			sb.WriteString(a.Content(st, k))
		}
	}
	return sb.String()
}

// MaterializeIn copies the complete stored subtree under the store
// reference at (doc, ord) into witness nodes of arena a and returns its
// root. Every copied node is counted as materialized. This is the cost the
// TAX and navigational baselines pay; TLC never does: Construct emits
// store references, and the serializer writes their subtrees from the
// columns.
func MaterializeIn(a *Arena, st *store.Store, doc store.DocID, ord int32) NodeID {
	d := st.Doc(doc)
	st.CountMaterialized(d.SubtreeSize(ord))
	s := a.Hold()
	defer a.Release(s)
	return buildFull(s, d, doc, ord)
}

// ExpandInPlaceIn materializes the full stored subtree under the store
// reference n of arena a while *preserving* the witness nodes already
// attached to it: existing kids referencing a stored child are reused (and
// expanded recursively), so their logical class memberships survive;
// missing children are copied in. Non-store kids (temporary nodes such as
// aggregate results) are kept after the stored children. This is the
// materialization used by the TAX baseline's early-materialization step.
// The caller must own n's tree.
func ExpandInPlaceIn(a *Arena, st *store.Store, n NodeID) {
	x := a.Node(n)
	if !x.IsStore() || x.Full {
		return
	}
	st.CountMaterialized(st.Doc(x.Doc).SubtreeSize(x.Ord) - 1)
	s := a.Hold()
	defer a.Release(s)
	expandInPlace(s, st, n)
}

func expandInPlace(s *Slab, st *store.Store, n NodeID) {
	a := s.a
	x := a.Node(n)
	d := st.Doc(x.Doc)
	existing := make(map[int32][]NodeID)
	var leftovers []NodeID
	for _, k := range a.Kids(n) {
		if kn := a.Node(k); kn.IsStore() && kn.Doc == x.Doc {
			existing[kn.Ord] = append(existing[kn.Ord], k)
		} else {
			leftovers = append(leftovers, k)
		}
	}
	var kids []NodeID
	for _, c := range d.Children(x.Ord) {
		if reuse := existing[c]; len(reuse) > 0 {
			k := reuse[0]
			existing[c] = reuse[1:]
			if !a.Node(k).Full {
				expandInPlace(s, st, k)
			}
			kids = append(kids, k)
			continue
		}
		kids = append(kids, buildFull(s, d, x.Doc, c))
	}
	// Duplicate witness references to the same stored child (redundant
	// branch matches) ride along after the canonical children, still
	// classified but not duplicated into the stored child list.
	for _, rest := range existing {
		leftovers = append(leftovers, rest...)
	}
	a.SetKids(n, append(kids, leftovers...))
	x.Full = true
}

// buildFull copies the stored subtree at ord into nodes from s, every
// child list sized by a first walk over the node's children.
func buildFull(s *Slab, d *store.Doc, doc store.DocID, ord int32) NodeID {
	id := s.StoreNodeOf(doc, ord, d)
	s.a.Node(id).Full = true
	first, end, kids := d.FirstChild(ord), d.End(ord), 0
	if first < 0 {
		return id
	}
	for c := first; c <= end; c = d.End(c) + 1 {
		kids++
	}
	s.a.GrowKids(id, kids)
	for c := first; c <= end; c = d.End(c) + 1 {
		s.a.Attach(id, buildFull(s, d, doc, c))
	}
	return id
}

// AppendXML appends the XML text of the witness subtree under id to dst. A
// store reference that has not been materialized (Full unset) stands for
// its whole stored subtree and is written straight from the columns; kids
// a match attached to it are scaffolding, not content. Temporary nodes
// serialize their kids. Shadowed nodes are invisible to output.
func (a *Arena) AppendXML(dst []byte, st *store.Store, id NodeID) []byte {
	n := a.Node(id)
	if n.Shadowed {
		return dst
	}
	if n.IsStore() && !n.Full {
		return st.Doc(n.Doc).AppendXML(dst, n.Ord)
	}
	switch n.Kind {
	case xmltree.Text:
		return xmltree.AppendEscaped(dst, a.Value(st, id))
	case xmltree.Attribute:
		return xmltree.AppendAttr(dst, a.Tag(st, id), a.Value(st, id))
	}
	tag := a.Tag(st, id)
	dst = append(append(dst, '<'), tag...)
	body := false
	for _, k := range a.Kids(id) {
		switch kn := a.Node(k); {
		case kn.Shadowed:
		case kn.Kind == xmltree.Attribute:
			dst = xmltree.AppendAttr(append(dst, ' '), a.Tag(st, k), a.Value(st, k))
		default:
			body = true
		}
	}
	if !body {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	for _, k := range a.Kids(id) {
		if a.Node(k).Kind != xmltree.Attribute {
			dst = a.AppendXML(dst, st, k)
		}
	}
	return append(append(append(dst, "</"...), tag...), '>')
}

// AppendXML appends the XML text of the tree to dst.
func (t *Tree) AppendXML(dst []byte, st *store.Store) []byte {
	return t.Arena().AppendXML(dst, st, t.Root)
}

// XML returns the XML serialization of the whole tree.
func (t *Tree) XML(st *store.Store) string {
	return Seq{t}.XML(st)
}

// XML returns the serialization of every tree in the sequence, newline
// separated — the shape the example binaries print. The string shares the
// buffer it was written into, which nothing writes again.
func (s Seq) XML(st *store.Store) string {
	var b []byte
	for i, t := range s {
		if i > 0 {
			b = append(b, '\n')
		}
		b = t.AppendXML(b, st)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
