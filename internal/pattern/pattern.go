// Package pattern implements Annotated Pattern Trees (APTs), the extension
// of classical tree pattern queries introduced in Section 2.1 of the TLC
// paper (Definitions 1 and 2). An APT is a rooted tree whose nodes carry a
// node test plus an optional content predicate and whose edges carry a
// structural axis (parent-child or ancestor-descendant) together with a
// matching specification mSpec drawn from {-, ?, +, *} that controls how
// many matches of the child are admitted per match of the parent:
//
//	"-"  exactly one match       (default; classical pattern match)
//	"?"  zero or one match
//	"+"  one or more matches, clustered into a single witness tree
//	"*"  zero or more matches, clustered into a single witness tree
//
// Every pattern node is assigned a Logical Class Label (LCL); the nodes of
// a witness tree that matched pattern node v form the logical class LC(v)
// (Definition 4), addressable by the label in all subsequent operators.
//
// Pattern node tests come in three forms: a tag test (element tag,
// "@attribute", or "#text"), a document-root test that anchors the pattern
// at a named document, and a logical-class membership test that anchors the
// pattern at nodes already classified by an earlier match — the mechanism
// behind pattern tree reuse (Section 4.1).
package pattern

import (
	"fmt"
	"strings"
)

// Axis is the structural relationship required along a pattern edge.
type Axis uint8

// Supported axes.
const (
	// Child requires a parent-child relationship.
	Child Axis = iota
	// Descendant requires an ancestor-descendant relationship ("//").
	Descendant
)

// String renders the axis in XPath style.
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// MSpec is the matching specification of an annotated pattern tree edge
// (Definition 1).
type MSpec uint8

// The four matching specifications.
const (
	// One ("-"): one and only one match of the child per match of the
	// parent in one witness tree.
	One MSpec = iota
	// ZeroOrOne ("?"): zero or one match.
	ZeroOrOne
	// OneOrMore ("+"): one or more matches, clustered.
	OneOrMore
	// ZeroOrMore ("*"): zero or more matches, clustered.
	ZeroOrMore
)

// Nested reports whether the specification clusters all matching relatives
// into a single witness tree ("+" or "*").
func (m MSpec) Nested() bool { return m == OneOrMore || m == ZeroOrMore }

// Optional reports whether the specification admits parents with no
// matching child ("?" or "*").
func (m MSpec) Optional() bool { return m == ZeroOrOne || m == ZeroOrMore }

// String renders the specification symbol used in the paper.
func (m MSpec) String() string {
	switch m {
	case One:
		return "-"
	case ZeroOrOne:
		return "?"
	case OneOrMore:
		return "+"
	default:
		return "*"
	}
}

// Cmp is a comparison operator in a content predicate.
type Cmp uint8

// Comparison operators supported by content predicates.
const (
	EQ Cmp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the comparison operator.
func (c Cmp) String() string {
	switch c {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	default:
		return ">="
	}
}

// Predicate is a content predicate attached to a pattern node, e.g.
// "> 25" on an age node. Comparison is numeric when both sides parse as
// numbers, textual otherwise (see Compare).
type Predicate struct {
	Op    Cmp
	Value string
}

// String renders the predicate.
func (p *Predicate) String() string { return p.Op.String() + p.Value }

// TestKind discriminates the node test of a pattern node.
type TestKind uint8

// Node test kinds.
const (
	// TestTag matches nodes by tag name (element tag, "@attr", "#text").
	TestTag TestKind = iota
	// TestDocRoot matches the root node of the named document; used for
	// the doc_root anchor of document()-rooted paths.
	TestDocRoot
	// TestLC matches the nodes of an existing logical class in the input
	// tree; used by extension pattern trees (pattern tree reuse).
	TestLC
	// TestWildcard matches any element node.
	TestWildcard
)

// Node is a node of an annotated pattern tree.
type Node struct {
	// LCL is the logical class label assigned to matches of this node.
	// Labels are positive and unique within the pattern; 0 means the node
	// has not been labelled (anonymous pattern nodes used only as glue).
	LCL int
	// Kind selects the node test.
	Kind TestKind
	// Tag is the tag name for TestTag nodes.
	Tag string
	// Doc is the document name for TestDocRoot nodes.
	Doc string
	// InClass is the referenced logical class for TestLC nodes.
	InClass int
	// Pred is an optional content predicate on the matched node.
	Pred *Predicate
	// Edges are the outgoing (downward) pattern edges in query order.
	Edges []Edge
}

// Edge is a downward edge of an annotated pattern tree.
//
// Beyond the structural axis and matching specification, an edge can carry
// a logical-operator annotation (after "Adding Logical Operators to Tree
// Pattern Queries", see DESIGN.md §15): edges of one node that share a
// positive Group identifier form an OR-disjunction — the parent matches
// when at least one member edge is satisfied — and an edge with Not set is
// an anti-join: the parent matches only when the edge's subtree has NO
// match (a Not member inside a Group is satisfied exactly when its subtree
// has no match). Annotated edges are pure existence tests: their subtrees
// are anonymous (every LCL is 0), nothing is attached to the witness tree,
// and they never multiply matches. Plain edges (Group == 0, !Not) are the
// implicit AND of the classical APT.
type Edge struct {
	Axis Axis
	Spec MSpec
	To   *Node
	// Group links this edge into an OR-disjunction with the sibling edges
	// carrying the same positive identifier; 0 means a plain AND edge.
	Group int
	// Not inverts the edge into an anti-join existence test.
	Not bool
}

// Logical reports whether the edge carries a logical-operator annotation
// (OR-group membership or NOT) and is therefore a pure existence test.
func (e *Edge) Logical() bool { return e.Group != 0 || e.Not }

// Tree is an annotated pattern tree.
type Tree struct {
	Root *Node
}

// NewTagNode returns a pattern node testing for the given tag with logical
// class label lcl.
func NewTagNode(lcl int, tag string) *Node {
	return &Node{LCL: lcl, Kind: TestTag, Tag: tag}
}

// NewDocRoot returns a pattern node anchored at the root of document doc.
func NewDocRoot(lcl int, doc string) *Node {
	return &Node{LCL: lcl, Kind: TestDocRoot, Doc: doc}
}

// NewLCAnchor returns a pattern node matching the members of logical class
// inClass of the input tree. It is the anchor of extension pattern trees.
func NewLCAnchor(lcl, inClass int) *Node {
	return &Node{LCL: lcl, Kind: TestLC, InClass: inClass}
}

// Add appends a child pattern node along an edge with the given axis and
// matching specification and returns the child for chaining.
func (n *Node) Add(child *Node, axis Axis, spec MSpec) *Node {
	n.Edges = append(n.Edges, Edge{Axis: axis, Spec: spec, To: child})
	return child
}

// Nodes returns all pattern nodes in pre-order.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, e := range n.Edges {
			walk(e.To)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

// FindLCL returns the pattern node labelled lcl, or nil.
func (t *Tree) FindLCL(lcl int) *Node {
	for _, n := range t.Nodes() {
		if n.LCL == lcl {
			return n
		}
	}
	return nil
}

// Validate checks structural sanity: non-nil root, unique positive LCLs,
// LC anchors only at the root, tag tests with non-empty tags, and
// well-formed logical annotations (OR groups need at least two member
// edges, and annotated subtrees must be anonymous — they are existence
// tests that bind no logical class). A nil error means the pattern is well
// formed.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("pattern: nil root")
	}
	if err := validateLogical(t.Root); err != nil {
		return err
	}
	seen := make(map[int]bool)
	nodes := t.Nodes()
	for i, n := range nodes {
		if n.LCL < 0 {
			return fmt.Errorf("pattern: negative LCL %d", n.LCL)
		}
		if n.LCL > 0 {
			if seen[n.LCL] {
				return fmt.Errorf("pattern: duplicate LCL %d", n.LCL)
			}
			seen[n.LCL] = true
		}
		switch n.Kind {
		case TestTag:
			if n.Tag == "" {
				return fmt.Errorf("pattern: empty tag test")
			}
		case TestDocRoot:
			if n.Doc == "" {
				return fmt.Errorf("pattern: empty document name")
			}
		case TestLC:
			if i != 0 {
				return fmt.Errorf("pattern: LC anchor (class %d) must be the pattern root", n.InClass)
			}
			if n.InClass <= 0 {
				return fmt.Errorf("pattern: LC anchor with class %d", n.InClass)
			}
		}
	}
	return nil
}

// validateLogical checks the logical-operator annotations below n: group
// identifiers are non-negative, every OR group has at least two member
// edges of the same node, and annotated (group or NOT) subtrees carry no
// logical class labels.
func validateLogical(n *Node) error {
	groupSize := make(map[int]int)
	for i := range n.Edges {
		e := &n.Edges[i]
		if e.Group < 0 {
			return fmt.Errorf("pattern: negative OR-group id %d", e.Group)
		}
		if e.Group > 0 {
			groupSize[e.Group]++
		}
		if e.Logical() {
			if err := requireAnonymous(e.To); err != nil {
				return err
			}
		}
		if err := validateLogical(e.To); err != nil {
			return err
		}
	}
	for g, size := range groupSize {
		if size < 2 {
			return fmt.Errorf("pattern: OR group %d has a single member edge", g)
		}
	}
	return nil
}

// requireAnonymous rejects logical class labels inside an annotated
// (existence-test) subtree: nothing is attached for such edges, so a label
// would silently produce an empty class.
func requireAnonymous(n *Node) error {
	if n.LCL != 0 {
		return fmt.Errorf("pattern: class label %d inside a logical (OR/NOT) subtree", n.LCL)
	}
	for i := range n.Edges {
		if err := requireAnonymous(n.Edges[i].To); err != nil {
			return err
		}
	}
	return nil
}

// String renders the pattern tree in a compact indented form used by plan
// explanation and tests, e.g.
//
//	doc_root(auction.xml) [1]
//	  //person [2]
//	    /age>25 [3]
func (t *Tree) String() string {
	if t == nil {
		return "(nil pattern)\n"
	}
	var sb strings.Builder
	var walk func(n *Node, depth int, e *Edge)
	walk = func(n *Node, depth int, e *Edge) {
		sb.WriteString(strings.Repeat("  ", depth))
		if e != nil {
			if e.Not {
				sb.WriteString("not ")
			}
			sb.WriteString(e.Axis.String())
		}
		switch n.Kind {
		case TestTag:
			sb.WriteString(n.Tag)
		case TestDocRoot:
			sb.WriteString("doc_root(" + n.Doc + ")")
		case TestLC:
			fmt.Fprintf(&sb, "class(%d)", n.InClass)
		case TestWildcard:
			sb.WriteString("*any*")
		}
		if n.Pred != nil {
			sb.WriteString(n.Pred.String())
		}
		if n.LCL > 0 {
			fmt.Fprintf(&sb, " [%d]", n.LCL)
		}
		if e != nil && e.Spec != One {
			fmt.Fprintf(&sb, " {%s}", e.Spec)
		}
		if e != nil && e.Group > 0 {
			fmt.Fprintf(&sb, " {or:%d}", e.Group)
		}
		sb.WriteByte('\n')
		for i := range n.Edges {
			walk(n.Edges[i].To, depth+1, &n.Edges[i])
		}
	}
	if t.Root != nil {
		walk(t.Root, 0, nil)
	}
	return sb.String()
}
