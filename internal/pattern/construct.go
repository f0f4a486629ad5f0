package pattern

import (
	"fmt"
	"strings"
)

// ConstructKind discriminates the nodes of an annotated construct-pattern
// tree (Section 2.3, operator Construct). A construct pattern describes how
// each output tree is assembled: fresh tagged elements, attributes whose
// values come from logical classes, text pulled from a class via .text(),
// whole subtrees copied from a class, and aggregate result references.
type ConstructKind uint8

// Construct node kinds.
const (
	// ConstructElement creates a fresh element with the given Tag.
	ConstructElement ConstructKind = iota
	// ConstructSubtree copies the full subtree of every node in FromLCL,
	// in document order ("*" semantics — zero nodes produce no output).
	ConstructSubtree
	// ConstructText emits the textual content of the nodes in FromLCL
	// (the (12).text() references of Figure 7).
	ConstructText
	// ConstructLiteral emits a fixed text node.
	ConstructLiteral
)

// ConstructNode is one node of a construct pattern.
type ConstructNode struct {
	Kind ConstructKind
	// Tag is the element tag for ConstructElement nodes.
	Tag string
	// FromLCL is the referenced logical class for subtree/text nodes.
	FromLCL int
	// Literal is the text for ConstructLiteral nodes.
	Literal string
	// Attrs are attributes placed on a ConstructElement, evaluated against
	// the input tree.
	Attrs []ConstructAttr
	// Children are the element's children, in output order.
	Children []*ConstructNode
	// NewLCL, when positive, labels the nodes this construct node creates
	// (or copies) in the output tree, so that outer query blocks can keep
	// referring to them (the LCL=14/15 labels of Figure 8).
	NewLCL int
}

// ConstructAttr is an attribute on a constructed element. Exactly one of
// FromLCL (text of the class member) or Literal supplies the value.
type ConstructAttr struct {
	// Tag is the attribute's name as stored, with the "@" prefix stored
	// attributes carry, so that Construct tags its nodes without building
	// a string per output tree.
	Tag     string
	FromLCL int
	Literal string
}

// NewElement returns a construct node creating element tag.
func NewElement(tag string, children ...*ConstructNode) *ConstructNode {
	return &ConstructNode{Kind: ConstructElement, Tag: tag, Children: children}
}

// String renders the construct pattern compactly for plan explanation.
func (c *ConstructNode) String() string {
	if c == nil {
		return "(nil construct)\n"
	}
	var sb strings.Builder
	c.render(&sb, 0)
	return sb.String()
}

func (c *ConstructNode) render(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	switch c.Kind {
	case ConstructElement:
		sb.WriteString("<" + c.Tag)
		for _, a := range c.Attrs {
			name := strings.TrimPrefix(a.Tag, "@")
			if a.FromLCL > 0 {
				fmt.Fprintf(sb, " %s=(%d).text()", name, a.FromLCL)
			} else {
				fmt.Fprintf(sb, " %s=%q", name, a.Literal)
			}
		}
		sb.WriteString(">")
	case ConstructSubtree:
		fmt.Fprintf(sb, "(%d)", c.FromLCL)
	case ConstructText:
		fmt.Fprintf(sb, "(%d).text()", c.FromLCL)
	case ConstructLiteral:
		fmt.Fprintf(sb, "%q", c.Literal)
	}
	if c.NewLCL > 0 {
		fmt.Fprintf(sb, " [%d]", c.NewLCL)
	}
	sb.WriteByte('\n')
	for _, ch := range c.Children {
		ch.render(sb, depth+1)
	}
}
