// Package xmltree implements the rooted node-labelled tree data model used
// throughout the system, together with the interval-based node identifiers
// described in Section 5.1 of the TLC paper.
//
// Every node in a parsed document carries a NodeID (Start, End, Level).
// The identifiers satisfy the four properties of Figure 13 of the paper:
//
//  1. uniqueness             — Start is unique within a document;
//  2. structural containment — a is an ancestor of b iff
//     a.Start < b.Start && b.End <= a.End;
//  3. absolute document order — pre-order position is exactly Start;
//  4. class order             — Start is monotone within any tag class.
//
// Documents are stored as flat arenas (slices of Node in document order),
// which keeps them cache-friendly and lets the store layer build indexes as
// plain sorted ordinal slices.
package xmltree

import "fmt"

// Kind classifies a node in the XML data model.
type Kind uint8

// Node kinds. Attributes and text are modelled as child nodes of their
// element, as in TIMBER's native storage.
const (
	Element Kind = iota
	Attribute
	Text
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NodeID is the interval identifier of a stored node (Section 5.1).
//
// Start is the pre-order position of the node within its document, End is
// the largest Start among the node and its descendants, and Level is the
// depth from the document root (root has level 0).
type NodeID struct {
	Start int32
	End   int32
	Level int32
}

// Contains reports whether the node identified by id is a proper ancestor
// of the node identified by other (property 2 of Figure 13).
func (id NodeID) Contains(other NodeID) bool {
	return id.Start < other.Start && other.End <= id.End
}

// String renders the identifier as (start:end@level).
func (id NodeID) String() string {
	return fmt.Sprintf("(%d:%d@%d)", id.Start, id.End, id.Level)
}

// Node is a single node of a stored document. Nodes live in a Document
// arena; Parent and the child span refer to arena ordinals, which coincide
// with NodeID.Start.
type Node struct {
	ID   NodeID
	Kind Kind
	// Tag is the element tag name or attribute name. Attribute names are
	// stored with a leading "@" so that tag indexes distinguish the element
	// class "id" from the attribute class "@id", matching pattern-tree
	// node tests. Text nodes have Tag "#text".
	Tag string
	// Value is the attribute value or text content; empty for elements.
	Value string
	// Parent is the arena ordinal of the parent node, or -1 for the root.
	Parent int32
	// FirstChild and LastChild delimit the children: the children of a
	// node n are exactly the nodes c with c.Parent == n ordinal, and they
	// occur in the arena between FirstChild and the node's End. FirstChild
	// is -1 if the node is a leaf.
	FirstChild int32
}

// TextTag is the pseudo tag name under which text nodes are stored.
const TextTag = "#text"
