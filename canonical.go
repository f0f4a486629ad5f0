package tlc

import (
	"fmt"
	"strings"

	"tlc/internal/pattern"
	"tlc/internal/xquery"
)

// Canonical is the parse-only canonical form of a query. Nothing in this
// module reads it: its sole caller is bench/gen.go:286, which dedupes the
// frozen read_coldplan request stream by Struct, so the rendering must stay
// byte-for-byte until the benchmark stops calling it (ROADMAP item 2).
// Exact is a deterministic render with variables α-renamed in
// first-binding order — two queries with equal Exact strings compile to
// identical plans. Struct is Exact with every liftable comparison's
// operator and literal replaced by "?" — two queries with equal Struct
// strings differ at most in the predicates of their liftable sites.
type Canonical struct {
	Exact  string
	Struct string
	// Sites are the conjunctive simple-comparison literal sites in
	// rendering order: outer bindings' nested blocks first, then WHERE
	// conjuncts left to right, then RETURN sub-blocks.
	Sites []CanonicalSite
}

// CanonicalSite is one conjunctive simple-comparison literal of the query.
type CanonicalSite struct {
	Op    pattern.Cmp
	Value string
	// Liftable marks sites whose literal is elided from Struct: the site's
	// path hangs off a chain of FOR bindings rooted at a document, judged
	// from the parse tree alone.
	Liftable bool
}

// Canonicalize parses text and returns its canonical form.
func Canonicalize(text string) (*Canonical, error) {
	ast, err := xquery.Parse(text)
	if err != nil {
		return nil, err
	}
	c := &canonicalizer{}
	c.block(ast)
	return &Canonical{Exact: c.exact.String(), Struct: c.strct.String(), Sites: c.sites}, nil
}

// canonBinding is what the canonicalizer knows about one bound variable.
type canonBinding struct {
	name    string // canonical name, $v1, $v2, ...
	isFor   bool
	sub     bool   // bound to a nested FLWOR's construct result
	rootDoc bool   // binding path anchors at document(...)
	rootVar string // original variable the binding path anchors at
}

type canonicalizer struct {
	exact, strct strings.Builder
	counter      int
	frames       []map[string]*canonBinding
	sites        []CanonicalSite
}

func (c *canonicalizer) emit(s string) {
	c.exact.WriteString(s)
	c.strct.WriteString(s)
}

func (c *canonicalizer) lookup(name string) *canonBinding {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if b, ok := c.frames[i][name]; ok {
			return b
		}
	}
	return nil
}

func (c *canonicalizer) define(name string, b *canonBinding) {
	c.counter++
	b.name = fmt.Sprintf("$v%d", c.counter)
	c.frames[len(c.frames)-1][name] = b
}

// liftable reports whether a WHERE conjunct rooted at variable name walks a
// chain of plain FOR bindings down from a document root.
func (c *canonicalizer) liftable(name string) bool {
	for {
		b := c.lookup(name)
		if b == nil || b.sub || !b.isFor {
			return false
		}
		if b.rootDoc {
			return true
		}
		name = b.rootVar
	}
}

func (c *canonicalizer) path(p *xquery.Path) {
	if p.Root == xquery.RootDocument {
		c.emit(fmt.Sprintf("document(%q)", p.Doc))
	} else if b := c.lookup(p.Var); b != nil {
		c.emit(b.name)
	} else {
		c.emit(p.Var) // unbound: keep the original spelling
	}
	for _, s := range p.Steps {
		c.emit(s.Axis.String() + s.Name)
	}
	if p.Text {
		c.emit("/text()")
	}
}

// block renders one FLWOR block, pushing a scope frame for its bindings.
func (c *canonicalizer) block(f *xquery.FLWOR) {
	c.frames = append(c.frames, make(map[string]*canonBinding))
	for _, b := range f.Bindings {
		kw := "for "
		if b.Kind == xquery.BindLet {
			kw = "let "
		}
		c.emit(kw)
		cb := &canonBinding{isFor: b.Kind == xquery.BindFor}
		if b.Sub != nil {
			cb.sub = true
		} else if b.Path.Root == xquery.RootDocument {
			cb.rootDoc = true
		} else {
			cb.rootVar = b.Path.Var
		}
		// The canonical name is assigned before rendering the source so the
		// numbering matches first-binding order, but the binding only enters
		// scope afterwards (a binding cannot reference itself).
		c.counter++
		cb.name = fmt.Sprintf("$v%d", c.counter)
		c.emit(cb.name + " in ")
		if b.Sub != nil {
			c.emit("(")
			c.block(b.Sub)
			c.emit(")")
		} else {
			c.path(b.Path)
		}
		c.emit(" ")
		c.frames[len(c.frames)-1][b.Var] = cb
	}
	if f.Where != nil {
		c.emit("where ")
		c.conjuncts(f.Where)
		c.emit(" ")
	}
	for i, k := range f.OrderBy {
		if i == 0 {
			c.emit("order ")
		} else {
			c.emit(",")
		}
		c.path(k.Path)
		if k.Descending {
			c.emit(" desc")
		}
		if i == len(f.OrderBy)-1 {
			c.emit(" ")
		}
	}
	c.emit("return ")
	c.ret(f.Return)
	c.frames = c.frames[:len(c.frames)-1]
}

// conjuncts renders the WHERE clause's top-level AND spine left to right;
// each simple-comparison conjunct is a literal site.
func (c *canonicalizer) conjuncts(e xquery.Expr) {
	if a, ok := e.(*xquery.And); ok {
		c.conjuncts(a.L)
		c.emit(" and ")
		c.conjuncts(a.R)
		return
	}
	if cmp, ok := e.(*xquery.Comparison); ok && cmp.RightPath == nil {
		c.site(cmp)
		return
	}
	c.expr(e)
}

// site renders one simple-comparison conjunct and records it: the operator
// and literal go into Exact always, and into Struct only when the site is
// not liftable. A liftable site renders as a bare "?" in Struct — the
// operator is elided along with the literal, so queries differing in the
// comparison op (age > 30 vs age >= 40) still share a structural key.
func (c *canonicalizer) site(cmp *xquery.Comparison) {
	lift := len(cmp.Left.Steps) > 0 && cmp.Left.Root == xquery.RootVariable && c.liftable(cmp.Left.Var)
	c.sites = append(c.sites, CanonicalSite{Op: cmp.Op, Value: cmp.RightVal, Liftable: lift})
	c.path(cmp.Left)
	c.exact.WriteString(" " + cmp.Op.String() + " " + fmt.Sprintf("%q", cmp.RightVal))
	if lift {
		c.strct.WriteString(" ?")
	} else {
		c.strct.WriteString(" " + cmp.Op.String() + " " + fmt.Sprintf("%q", cmp.RightVal))
	}
}

func (c *canonicalizer) expr(e xquery.Expr) {
	switch x := e.(type) {
	case *xquery.And:
		c.emit("(")
		c.expr(x.L)
		c.emit(" and ")
		c.expr(x.R)
		c.emit(")")
	case *xquery.Or:
		c.emit("(")
		c.expr(x.L)
		c.emit(" or ")
		c.expr(x.R)
		c.emit(")")
	case *xquery.Comparison:
		c.path(x.Left)
		c.emit(" " + x.Op.String() + " ")
		if x.RightPath != nil {
			c.path(x.RightPath)
		} else {
			c.emit(fmt.Sprintf("%q", x.RightVal))
		}
	case *xquery.AggrPred:
		c.emit(x.Fn + "(")
		c.path(x.Path)
		c.emit(fmt.Sprintf(") %s %q", x.Op, x.Value))
	case *xquery.Quantified:
		kw := "some "
		if x.Every {
			kw = "every "
		}
		c.emit(kw)
		c.frames = append(c.frames, make(map[string]*canonBinding))
		qb := &canonBinding{isFor: true, rootVar: x.Path.Var}
		if x.Path.Root == xquery.RootDocument {
			qb.rootDoc = true
		}
		c.define(x.Var, qb)
		c.emit(qb.name + " in ")
		c.path(x.Path)
		c.emit(" satisfies ")
		c.expr(x.Cond)
		c.frames = c.frames[:len(c.frames)-1]
	case *xquery.Not:
		c.emit("not(")
		c.expr(x.X)
		c.emit(")")
	case *xquery.Exists:
		c.emit("exists(")
		c.path(x.Path)
		c.emit(")")
	default:
		c.emit(fmt.Sprintf("<%T>", e))
	}
}

func (c *canonicalizer) ret(r *xquery.RetNode) {
	if r == nil {
		c.emit("()")
		return
	}
	switch r.Kind {
	case xquery.RetPath:
		c.path(r.Path)
	case xquery.RetAggr:
		c.emit(r.Fn + "(")
		c.path(r.Path)
		c.emit(")")
	case xquery.RetLiteral:
		c.emit(fmt.Sprintf("lit(%q)", r.Literal))
	case xquery.RetSub:
		c.emit("{")
		c.block(r.Sub)
		c.emit("}")
	case xquery.RetElement:
		c.emit("<" + r.Tag)
		for _, a := range r.Attrs {
			c.emit(" " + a.Name + "=")
			if a.Path != nil {
				c.path(a.Path)
			} else {
				c.emit(fmt.Sprintf("%q", a.Literal))
			}
		}
		c.emit(">")
		for i, ch := range r.Children {
			if i > 0 {
				c.emit(",")
			}
			c.ret(ch)
		}
		c.emit("</>")
	default:
		c.emit(fmt.Sprintf("<ret%d>", r.Kind))
	}
}
