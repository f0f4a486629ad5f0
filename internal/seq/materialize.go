package seq

import (
	"strings"

	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// Content returns the textual content of a witness node: element content is
// read through the store for store references (concatenated direct text
// children) and computed from temporary kids otherwise; attributes and text
// nodes return their value directly.
func Content(st *store.Store, n *Node) string {
	switch n.Kind {
	case xmltree.Attribute, xmltree.Text:
		return n.Value
	}
	if n.IsStore() {
		return st.Content(n.Doc, n.Ord)
	}
	var sb strings.Builder
	for _, k := range n.Kids {
		if k.Kind == xmltree.Text {
			sb.WriteString(Content(st, k))
		}
	}
	return sb.String()
}

// Materialize copies the complete stored subtree under the store reference
// at (doc, ord) into witness nodes and returns its root. Every copied node
// is counted as materialized. This is the cost the TAX and navigational
// baselines pay; TLC never does: Construct emits store references, and the
// serializer writes their subtrees from the columns.
func Materialize(st *store.Store, doc store.DocID, ord int32) *Node {
	return MaterializeIn(nil, st, doc, ord)
}

// MaterializeIn is Materialize with the copied nodes drawn from arena a
// (nil = plain new).
func MaterializeIn(a *Arena, st *store.Store, doc store.DocID, ord int32) *Node {
	d := st.Doc(doc)
	st.CountMaterialized(d.SubtreeSize(ord))
	s := a.Hold()
	defer a.Release(s)
	return buildFull(s, d, doc, ord, nil)
}

// ExpandInPlace materializes the full stored subtree under the store
// reference n while *preserving* the witness nodes already attached to it:
// existing kids referencing a stored child are reused (and expanded
// recursively), so their logical class memberships survive; missing
// children are copied in. Non-store kids (temporary nodes such as
// aggregate results) are kept after the stored children. This is the
// materialization used by the TAX baseline's early-materialization step.
func ExpandInPlace(st *store.Store, n *Node) {
	ExpandInPlaceIn(nil, st, n)
}

// ExpandInPlaceIn is ExpandInPlace with the copied-in nodes drawn from
// arena a (nil = plain new). The caller must own n's tree.
func ExpandInPlaceIn(a *Arena, st *store.Store, n *Node) {
	if !n.IsStore() || n.Full {
		return
	}
	st.CountMaterialized(st.Doc(n.Doc).SubtreeSize(n.Ord) - 1)
	s := a.Hold()
	defer a.Release(s)
	expandInPlace(s, st, n)
}

func expandInPlace(s *Slab, st *store.Store, n *Node) {
	d := st.Doc(n.Doc)
	existing := make(map[int32][]*Node)
	var leftovers []*Node
	for _, k := range n.Kids {
		if k.IsStore() && k.Doc == n.Doc {
			existing[k.Ord] = append(existing[k.Ord], k)
		} else {
			leftovers = append(leftovers, k)
		}
	}
	var kids []*Node
	for _, c := range d.Children(n.Ord) {
		if reuse := existing[c]; len(reuse) > 0 {
			k := reuse[0]
			existing[c] = reuse[1:]
			if !k.Full {
				expandInPlace(s, st, k)
			}
			kids = append(kids, k)
			continue
		}
		cp := buildFull(s, d, n.Doc, c, n)
		kids = append(kids, cp)
	}
	// Duplicate witness references to the same stored child (redundant
	// branch matches) ride along after the canonical children, still
	// classified but not duplicated into the stored child list.
	for _, rest := range existing {
		leftovers = append(leftovers, rest...)
	}
	n.Kids = kids
	for _, k := range kids {
		k.Parent = n
	}
	for _, k := range leftovers {
		k.Parent = n
		n.Kids = append(n.Kids, k)
	}
	n.Full = true
}

// buildFull copies the stored subtree at ord into nodes from s, every
// child list sized by a first walk over the node's children.
func buildFull(s *Slab, d *store.Doc, doc store.DocID, ord int32, parent *Node) *Node {
	n := s.StoreNodeOf(doc, ord, d)
	n.Parent = parent
	n.Full = true
	first, end, kids := d.FirstChild(ord), d.End(ord), 0
	if first < 0 {
		return n
	}
	for c := first; c <= end; c = d.End(c) + 1 {
		kids++
	}
	n.Kids = s.Kids(kids)
	for c := first; c <= end; c = d.End(c) + 1 {
		n.Kids = append(n.Kids, buildFull(s, d, doc, c, n))
	}
	return n
}

// AppendXML appends the XML text of the witness subtree under n to dst. A
// store reference that has not been materialized (Full unset) stands for
// its whole stored subtree and is written straight from the columns; kids
// a match attached to it are scaffolding, not content. Temporary nodes
// serialize their kids. Shadowed nodes are invisible to output.
func AppendXML(dst []byte, st *store.Store, n *Node) []byte {
	if n.Shadowed {
		return dst
	}
	if n.IsStore() && !n.Full {
		return st.Doc(n.Doc).AppendXML(dst, n.Ord)
	}
	switch n.Kind {
	case xmltree.Text:
		return xmltree.AppendEscaped(dst, n.Value)
	case xmltree.Attribute:
		return xmltree.AppendAttr(dst, n.Tag, n.Value)
	}
	dst = append(append(dst, '<'), n.Tag...)
	body := false
	for _, k := range n.Kids {
		switch {
		case k.Shadowed:
		case k.Kind == xmltree.Attribute:
			dst = xmltree.AppendAttr(append(dst, ' '), k.Tag, k.Value)
		default:
			body = true
		}
	}
	if !body {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	for _, k := range n.Kids {
		if k.Kind != xmltree.Attribute {
			dst = AppendXML(dst, st, k)
		}
	}
	return append(append(append(dst, "</"...), n.Tag...), '>')
}

// XML returns the XML serialization of the whole tree.
func (t *Tree) XML(st *store.Store) string {
	return string(AppendXML(nil, st, t.Root))
}

// XML returns the serialization of every tree in the sequence, newline
// separated — the shape the example binaries print.
func (s Seq) XML(st *store.Store) string {
	var b []byte
	for i, t := range s {
		if i > 0 {
			b = append(b, '\n')
		}
		b = AppendXML(b, st, t.Root)
	}
	return string(b)
}
