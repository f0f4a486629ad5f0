package xquery

import (
	"fmt"
	"strings"

	"tlc/internal/pattern"
)

// FLWOR is a (possibly nested) FOR-LET-WHERE-ORDER BY-RETURN expression.
type FLWOR struct {
	Bindings []Binding
	Where    Expr // nil when absent
	OrderBy  []OrderKey
	Return   *RetNode
}

// BindKind discriminates FOR from LET bindings.
type BindKind uint8

// Binding kinds.
const (
	BindFor BindKind = iota
	BindLet
)

// Binding is one FOR or LET clause. Exactly one of Path and Sub is set:
// the variable ranges over a simple path or over the result of a nested
// FLWOR.
type Binding struct {
	Kind BindKind
	Var  string // with the leading $
	Path *Path
	Sub  *FLWOR
}

// PathRoot discriminates the anchor of a simple path.
type PathRoot uint8

// Path roots.
const (
	// RootDocument anchors at document("name").
	RootDocument PathRoot = iota
	// RootVariable anchors at a bound variable.
	RootVariable
)

// Path is a Simple Path: an anchor followed by /, // steps without
// branching predicates. A trailing text() is recorded in Text.
type Path struct {
	Root PathRoot
	Doc  string // document name for RootDocument
	Var  string // variable for RootVariable
	// Steps are the location steps in order. Attribute steps carry the
	// "@" prefix in Name.
	Steps []Step
	// Text marks a trailing /text() step.
	Text bool
}

// Step is one location step of a simple path.
type Step struct {
	Axis pattern.Axis
	Name string
}

// String renders the path in XPath syntax.
func (p *Path) String() string {
	var sb strings.Builder
	if p.Root == RootDocument {
		fmt.Fprintf(&sb, "document(%q)", p.Doc)
	} else {
		sb.WriteString(p.Var)
	}
	for _, s := range p.Steps {
		sb.WriteString(s.Axis.String())
		sb.WriteString(s.Name)
	}
	if p.Text {
		sb.WriteString("/text()")
	}
	return sb.String()
}

// Expr is a WHERE expression.
type Expr interface {
	exprNode()
	String() string
}

// And is a conjunction.
type And struct{ L, R Expr }

// Or is a disjunction.
type Or struct{ L, R Expr }

// Comparison is either a simple predicate expression (path op literal) or
// a value join (path op path); exactly one of RightValue / RightPath is
// meaningful, discriminated by RightPath != nil.
type Comparison struct {
	Left      *Path
	Op        pattern.Cmp
	RightVal  string
	RightPath *Path
}

// AggrPred is an aggregate predicate expression: Fn(path) op literal.
type AggrPred struct {
	Fn    string
	Path  *Path
	Op    pattern.Cmp
	Value string
}

// Quantified is EVERY/SOME $v IN path SATISFIES cond, where cond is a
// simple predicate over $v.
type Quantified struct {
	Every bool
	Var   string
	Path  *Path
	Cond  *Comparison
}

// Not is a boolean negation: not(expr).
type Not struct{ X Expr }

// Exists is a bare-path existence test: true when the path has at least
// one match. Produced for paths used as predicates, e.g. not($p/phone).
type Exists struct{ Path *Path }

func (*And) exprNode()        {}
func (*Or) exprNode()         {}
func (*Comparison) exprNode() {}
func (*AggrPred) exprNode()   {}
func (*Quantified) exprNode() {}
func (*Not) exprNode()        {}
func (*Exists) exprNode()     {}

// String implementations render expressions for diagnostics.
func (e *And) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }
func (e *Or) String() string  { return "(" + e.L.String() + " OR " + e.R.String() + ")" }
func (e *Comparison) String() string {
	if e.RightPath != nil {
		return e.Left.String() + " " + e.Op.String() + " " + e.RightPath.String()
	}
	return e.Left.String() + " " + e.Op.String() + " " + e.RightVal
}
func (e *AggrPred) String() string {
	return fmt.Sprintf("%s(%s) %s %s", e.Fn, e.Path, e.Op, e.Value)
}
func (e *Quantified) String() string {
	q := "SOME"
	if e.Every {
		q = "EVERY"
	}
	return fmt.Sprintf("%s %s IN %s SATISFIES %s", q, e.Var, e.Path, e.Cond)
}
func (e *Not) String() string    { return "not(" + e.X.String() + ")" }
func (e *Exists) String() string { return e.Path.String() }

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Path       *Path
	Descending bool
}

// RetKind discriminates RETURN expression nodes.
type RetKind uint8

// Return node kinds.
const (
	// RetPath emits the subtrees (or text) that a simple path selects.
	RetPath RetKind = iota
	// RetAggr emits an aggregate over a simple path.
	RetAggr
	// RetElement constructs an element with attributes and children.
	RetElement
	// RetSub emits the result of a nested FLWOR.
	RetSub
	// RetLiteral emits literal text.
	RetLiteral
)

// RetNode is a node of a RETURN expression tree.
type RetNode struct {
	Kind     RetKind
	Path     *Path  // RetPath, RetAggr
	Fn       string // RetAggr
	Tag      string // RetElement
	Attrs    []RetAttr
	Children []*RetNode
	Sub      *FLWOR // RetSub
	Literal  string // RetLiteral
}

// RetAttr is an attribute of a constructed element; its value comes from a
// simple path (usually with a trailing text()) or a literal.
type RetAttr struct {
	Name    string
	Path    *Path
	Literal string
}

// Vars returns the variables bound by the FLWOR's own clauses, in order.
func (f *FLWOR) Vars() []string {
	out := make([]string, len(f.Bindings))
	for i, b := range f.Bindings {
		out[i] = b.Var
	}
	return out
}
