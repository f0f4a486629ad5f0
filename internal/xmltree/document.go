package xmltree

import (
	"fmt"
	"strings"
)

// Document is a parsed XML document held as a flat arena of nodes in
// document (pre-order) order. The ordinal of a node in Nodes equals its
// NodeID.Start, so a NodeID is sufficient to locate a node in O(1).
type Document struct {
	// Name is the document name under which the document was loaded,
	// e.g. "auction.xml".
	Name string
	// Nodes holds every node of the document in pre-order.
	Nodes []Node
}

// Root returns the ordinal of the document root element (always 0).
func (d *Document) Root() int32 { return 0 }

// Len returns the number of nodes in the document.
func (d *Document) Len() int { return len(d.Nodes) }

// Children returns the ordinals of the direct children of the node at the
// given ordinal, in document order.
func (d *Document) Children(ordinal int32) []int32 {
	n := &d.Nodes[ordinal]
	if n.FirstChild < 0 {
		return nil
	}
	var kids []int32
	for c := n.FirstChild; c <= n.ID.End; {
		kids = append(kids, c)
		c = d.Nodes[c].ID.End + 1
	}
	return kids
}

// Content returns the textual content of a node: the value itself for
// attributes and text nodes, and the concatenation of the direct text
// children for elements. This is the value used by content predicates such
// as age > 25 and by the value index.
func (d *Document) Content(ordinal int32) string {
	n := &d.Nodes[ordinal]
	switch n.Kind {
	case Attribute, Text:
		return n.Value
	}
	if n.FirstChild < 0 {
		return ""
	}
	var sb strings.Builder
	for _, c := range d.Children(ordinal) {
		if d.Nodes[c].Kind == Text {
			sb.WriteString(d.Nodes[c].Value)
		}
	}
	return sb.String()
}

// Validate checks the structural invariants of the arena encoding and
// returns a descriptive error for the first violation found. It is used by
// tests and by the store loader as a cheap integrity check.
func (d *Document) Validate() error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("xmltree: document %q has no nodes", d.Name)
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.ID.Start != int32(i) {
			return fmt.Errorf("xmltree: node %d has Start %d", i, n.ID.Start)
		}
		if n.ID.End < n.ID.Start || int(n.ID.End) >= len(d.Nodes) {
			return fmt.Errorf("xmltree: node %d has End %d out of range", i, n.ID.End)
		}
		if i == 0 {
			if n.Parent != -1 {
				return fmt.Errorf("xmltree: root has parent %d", n.Parent)
			}
			if n.ID.End != int32(len(d.Nodes)-1) {
				return fmt.Errorf("xmltree: root End %d does not span document of %d nodes", n.ID.End, len(d.Nodes))
			}
			continue
		}
		p := &d.Nodes[n.Parent]
		if !p.ID.Contains(n.ID) {
			return fmt.Errorf("xmltree: node %d not contained in parent %d", i, n.Parent)
		}
		if p.ID.Level+1 != n.ID.Level {
			return fmt.Errorf("xmltree: node %d level %d under parent level %d", i, n.ID.Level, p.ID.Level)
		}
	}
	return nil
}

// Builder assembles a Document in a single pre-order pass. It is used by
// the XML parser and by the synthetic XMark generator, which construct
// documents directly without an XML text round trip. Unbalanced usage
// (closing more elements than were opened, finishing with elements still
// open) is reported by Done as an error, not a panic: builder input can
// come from untrusted XML via POST /load, and malformed input must fail
// the load, not the process.
type Builder struct {
	doc   *Document
	stack []int32
	err   error
}

// NewBuilder returns a builder for a document with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{doc: &Document{Name: name}}
}

// OpenElement appends a new element node as a child of the currently open
// element (or as the root) and makes it the open element.
func (b *Builder) OpenElement(tag string) {
	b.push(Element, tag, "")
}

// Attr appends an attribute node to the currently open element. The name
// is stored with a leading "@".
func (b *Builder) Attr(name, value string) {
	b.leaf(Attribute, "@"+name, value)
}

// TextNode appends a text node with the given content to the currently
// open element. Empty content is ignored.
func (b *Builder) TextNode(content string) {
	if content == "" {
		return
	}
	b.leaf(Text, TextTag, content)
}

// CloseElement closes the currently open element, fixing its End interval.
// Closing with no element open is recorded and reported by Done.
func (b *Builder) CloseElement() {
	if len(b.stack) == 0 {
		if b.err == nil {
			b.err = fmt.Errorf("xmltree: document %q closes an element that was never opened", b.doc.Name)
		}
		return
	}
	top := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.doc.Nodes[top].ID.End = int32(len(b.doc.Nodes) - 1)
}

// Element appends a leaf element that carries only the given text content,
// a common shape in XMark data (e.g. <age>32</age>).
func (b *Builder) Element(tag, content string) {
	b.OpenElement(tag)
	b.TextNode(content)
	b.CloseElement()
}

// Done finishes the document and returns it, or an error when the builder
// input was unbalanced — elements still open, or a close without an open.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: document %q finished with %d open elements", b.doc.Name, len(b.stack))
	}
	return b.doc, nil
}

func (b *Builder) push(kind Kind, tag, value string) {
	ord := int32(len(b.doc.Nodes))
	parent := int32(-1)
	level := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		level = b.doc.Nodes[parent].ID.Level + 1
		if b.doc.Nodes[parent].FirstChild < 0 {
			b.doc.Nodes[parent].FirstChild = ord
		}
	}
	b.doc.Nodes = append(b.doc.Nodes, Node{
		ID:         NodeID{Start: ord, End: ord, Level: level},
		Kind:       kind,
		Tag:        tag,
		Value:      value,
		Parent:     parent,
		FirstChild: -1,
	})
	b.stack = append(b.stack, ord)
}

func (b *Builder) leaf(kind Kind, tag, value string) {
	b.push(kind, tag, value)
	b.stack = b.stack[:len(b.stack)-1]
}
