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
// is counted as materialized — this is the cost that TAX's early
// materialization pays up front and TLC defers to Construct.
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
// arena a (nil = plain new). The caller must own n's tree (unfrozen).
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

// AppendXML serializes the witness subtree under n to sb. Store references
// that have not been materialized (Full unset) are serialized directly from
// the store — the store subtree is authoritative for them; partial matched
// kids are scaffolding, not content. Temporary nodes serialize their kids.
// Shadowed nodes are invisible to output.
func AppendXML(sb *strings.Builder, st *store.Store, n *Node) {
	if n.Shadowed {
		return
	}
	if n.IsStore() && !n.Full {
		st.CountMaterialized(st.Doc(n.Doc).SubtreeSize(n.Ord))
		sb.WriteString(st.Doc(n.Doc).XML(n.Ord))
		return
	}
	switch n.Kind {
	case xmltree.Text:
		xmlEscape(sb, n.Value)
		return
	case xmltree.Attribute:
		sb.WriteString(n.Tag[1:])
		sb.WriteString(`="`)
		xmlEscape(sb, n.Value)
		sb.WriteString(`"`)
		return
	}
	sb.WriteByte('<')
	sb.WriteString(n.Tag)
	var body []*Node
	for _, k := range n.Kids {
		if k.Shadowed {
			continue
		}
		if k.Kind == xmltree.Attribute {
			sb.WriteByte(' ')
			sb.WriteString(k.Tag[1:])
			sb.WriteString(`="`)
			xmlEscape(sb, k.Value)
			sb.WriteString(`"`)
		} else {
			body = append(body, k)
		}
	}
	if len(body) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	for _, k := range body {
		AppendXML(sb, st, k)
	}
	sb.WriteString("</")
	sb.WriteString(n.Tag)
	sb.WriteByte('>')
}

// XML returns the XML serialization of the whole tree.
func (t *Tree) XML(st *store.Store) string {
	var sb strings.Builder
	AppendXML(&sb, st, t.Root)
	return sb.String()
}

// XML returns the serialization of every tree in the sequence, newline
// separated — the shape the example binaries print.
func (s Seq) XML(st *store.Store) string {
	var sb strings.Builder
	for i, t := range s {
		if i > 0 {
			sb.WriteByte('\n')
		}
		AppendXML(&sb, st, t.Root)
	}
	return sb.String()
}

func xmlEscape(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '&':
			sb.WriteString("&amp;")
		case '"':
			sb.WriteString("&quot;")
		default:
			sb.WriteRune(r)
		}
	}
}
