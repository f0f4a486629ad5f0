package physical

import (
	"context"
	"errors"
	"fmt"

	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/xmltree"
)

// maxAlternatives bounds the number of witness trees a single input tree
// may expand into during an extension match. Exceeding it indicates a
// runaway "-" edge combination and is reported as an error rather than
// allowed to exhaust memory. A variable so tests can lower the bound; use
// SetMaxAlternatives to restore it.
var maxAlternatives = 65536

// SetMaxAlternatives overrides the witness-tree explosion bound and
// returns a func restoring the previous value. Testing hook: production
// code never calls it.
func SetMaxAlternatives(n int) (restore func()) {
	prev := maxAlternatives
	maxAlternatives = n
	return func() { maxAlternatives = prev }
}

// ExplosionError reports an extension match whose witness-tree expansion
// exceeded the maxAlternatives bound. It is a property of the query shape
// against the data (a runaway "-" edge combination), not an evaluator
// fault, so the service maps it to the 422 query_error taxonomy class.
type ExplosionError struct {
	// Limit is the bound that was exceeded.
	Limit int
}

func (e *ExplosionError) Error() string {
	return fmt.Sprintf("physical: extension match explodes past %d witness trees", e.Limit)
}

// ErrLogicalBelowConstructed reports an extension pattern with an OR or
// NOT edge below a node of a constructed tree. No translated plan extends
// one: the extender decides only plain edges there.
var ErrLogicalBelowConstructed = errors.New("physical: OR/NOT edge below a constructed node")

// site is one anchor node of an input tree together with the alternatives
// the extension pattern has there. A stored anchor's alternatives are the
// states of an odometer over the anchor's vec; a temporary anchor's are
// lists of labels for nodes the tree already holds.
type site struct {
	a seq.NodeID
	n int // number of alternatives, at least 1
	// at is where a stored anchor's odometer digits start in x.digits. A
	// site holds no pointer to them, so recording it takes no write
	// barrier.
	at  int
	mem [][]label // a temporary anchor's alternatives, nil for a stored one
	cur int       // index into mem
}

// label is one classification an in-memory match makes: a node joins a
// class. A node found below a stored node, which stands for its stored
// subtree, is read from the columns and is not in the input tree: under is
// the node it is attached below, in each witness tree that uses it.
type label struct {
	lcl   int
	node  seq.NodeID
	under seq.NodeID
}

// odometer returns the odometer of the stored anchor of s over its digits
// in x.digits, entering the anchor's document, whose vector the site's
// making computed: entering it again cannot fail.
func (x *extender) siteOdometer(s *site) odometer {
	_ = x.enter(s.a)
	return odometer{d: x.d, flat: x.av.flat, x: x.a.Node(s.a).Ord, pos: x.digits[s.at : s.at+len(x.av.flat)]}
}

// advance moves s to its next alternative; false after the last.
func (x *extender) advance(s *site) bool {
	if s.mem == nil {
		od := x.siteOdometer(s)
		return od.next()
	}
	s.cur++
	return s.cur < len(s.mem)
}

// rewind puts s back on its first alternative.
func (x *extender) rewind(s *site) {
	s.cur = 0
	if s.mem == nil {
		od := x.siteOdometer(s)
		od.reset(0)
	}
}

// MatchExtend evaluates an extension APT — a pattern anchored at an
// existing logical class (Section 4.1, pattern tree reuse) — over every
// tree of the input sequence. For each input tree the pattern is matched at
// every active member of the anchored class; "-" edges can multiply a tree
// into several witness trees, "?"/"*" edges let trees without matches
// through, and a failed "-"/"+" edge at any anchor drops the tree.
//
// An anchor that references a stored node is tested against the vectors of
// the pattern's edges (one binary search each) and, if it passes, gets the
// matching branches built and attached below it — nothing is built for an
// anchor that fails, or for a stored node no input tree anchors at. Anchors
// that are temporary nodes — constructed intermediate results — are matched
// against their in-memory children instead, and matching nodes are
// classified in place: a query reaches this with a path of two or more
// steps into a nested block's constructed binding, FOR $a IN (FOR ...
// RETURN <w><q>{$o/quantity}</q></w>) RETURN $a/q/quantity, anchored at
// the constructed root. Below a stored node of such a tree, which stands
// for its stored subtree, the match reads the columns and attaches the
// nodes it classifies to the stored node in each witness tree.
func (m *Matcher) MatchExtend(ctx context.Context, input seq.Seq, apt *pattern.Tree) (seq.Seq, error) {
	if err := apt.Validate(); err != nil {
		return nil, err
	}
	anchor := apt.Root
	if anchor.Kind != pattern.TestLC {
		return nil, fmt.Errorf("physical: MatchExtend needs a logical-class anchor, got kind %d", anchor.Kind)
	}
	var a *seq.Arena // the branches grow where the input trees live
	if len(input) > 0 {
		a = input[0].Arena()
	}
	x := extender{builder: m.builder(ctx, a), anchor: anchor}
	defer x.a.Release(x.slab)
	out := make(seq.Seq, 0, len(input))
	for i, t := range input {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		var err error
		if out, err = x.extend(out, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// extender is the state of one MatchExtend call.
type extender struct {
	builder
	anchor *pattern.Node
	av     *vec   // the anchor's vec in the document of the last stored anchor
	sites  []site // reused from tree to tree
	// placed pairs each node a label read from the columns with its copy
	// in the witness tree being built.
	placed [][2]seq.NodeID
}

// enter points the builder and x.av at the document of stored anchor a.
func (x *extender) enter(a seq.NodeID) error {
	doc := x.a.Node(a).Doc
	if x.d != nil && x.doc == doc {
		return nil
	}
	av, err := x.m.vector(x.ctx, doc, x.anchor)
	if err != nil {
		return err
	}
	x.av, x.doc, x.d = av, doc, x.m.st.Doc(doc)
	return nil
}

// extend appends to out the witness trees t extends into: none when some
// anchor fails a required edge, t itself when the anchored class is empty
// (the pattern is vacuously satisfied) or when there is a single
// combination and this operator owns t, otherwise one tree per combination
// of the anchors' alternatives — every anchor is extended in every witness.
func (x *extender) extend(out seq.Seq, t *seq.Tree) (seq.Seq, error) {
	t = x.slab.Import(t) // an input of another arena than the first's
	anchors := t.Class(x.anchor.InClass)
	if len(anchors) == 0 {
		return append(out, t), nil
	}
	x.sites, x.digits = x.sites[:0], x.digits[:0]
	total := 1
	for _, a := range anchors {
		s := site{a: a, n: 1}
		if an := x.a.Node(a); an.IsStore() {
			if err := x.enter(a); err != nil {
				return nil, err
			}
			if !x.av.holds(x.d, an.Ord) {
				return out, nil
			}
			s.at = len(x.digits)
			od := x.odometer(x.av, an.Ord)
			od.reset(0) // holds: every required digit finds a relative
			for total*s.n <= maxAlternatives && od.next() {
				s.n++
			}
			od.reset(0)
		} else {
			var err error
			if s.mem, err = x.memAlts(a, x.anchor); err != nil {
				return nil, err
			}
			if s.n = len(s.mem); s.n == 0 {
				return out, nil
			}
		}
		if total *= s.n; total > maxAlternatives {
			return nil, &ExplosionError{Limit: maxAlternatives}
		}
		x.sites = append(x.sites, s)
	}
	// Every combination but the last extends a copy, its anchors and
	// labelled nodes re-located through the mapping; the last (usually the
	// only one — extension selects over "*" edges, the RETURN paths, are
	// the common case) extends the tree in place.
	for combo := 1; ; combo++ {
		if err := poll(x.ctx, combo-1); err != nil {
			return nil, err
		}
		nm := seq.NodeMap{}
		if x.t = t; combo < total {
			x.t, nm = t.CloneWithMapping()
		}
		for i := range x.sites {
			if err := x.apply(&x.sites[i], nm); err != nil {
				return nil, err
			}
		}
		nm.Release()
		out = append(out, x.t)
		i := len(x.sites) - 1
		for ; i >= 0 && !x.advance(&x.sites[i]); i-- {
			x.rewind(&x.sites[i])
		}
		if i < 0 {
			return out, nil
		}
	}
}

// apply extends the builder's tree at one anchor with the site's current
// alternative.
func (x *extender) apply(s *site, nm seq.NodeMap) error {
	target := nm.Get(s.a)
	if lcl := x.anchor.LCL; lcl != x.anchor.InClass {
		x.t.AddToClass(lcl, target)
	}
	if s.mem != nil {
		x.placed = x.placed[:0]
		for _, l := range s.mem[s.cur] {
			x.t.AddToClass(l.lcl, x.place(l, nm))
		}
		return nil
	}
	od := x.siteOdometer(s)
	x.kids(x.av, od.x, target, &od, 0)
	return x.err
}

// place returns the node of the witness tree being built that l labels:
// the tree's own, or a copy of a node read from the columns, attached below
// its stored ancestor the first time the tree needs it. Labels list a node
// before the nodes found below it.
func (x *extender) place(l label, nm seq.NodeMap) seq.NodeID {
	if l.under == seq.NoNode {
		return nm.Get(l.node)
	}
	under := nm.Get(l.under)
	for _, p := range x.placed {
		switch p[0] {
		case l.node:
			return p[1]
		case l.under:
			under = p[1]
		}
	}
	n := x.a.Node(l.node)
	cp := x.slab.StoreNodeOf(n.Doc, n.Ord, x.m.st.Doc(n.Doc))
	x.a.Attach(under, cp)
	x.placed = append(x.placed, [2]seq.NodeID{l.node, cp})
	return cp
}

// memAlts matches the edges of p below the in-memory node n (already known
// to satisfy p's own test) and returns the alternatives, each the list of
// labels it adds below n; nil when a required edge fails. Deeper pattern
// levels are resolved in memory as well. An OR or NOT edge is refused with
// ErrLogicalBelowConstructed.
func (x *extender) memAlts(n seq.NodeID, p *pattern.Node) ([][]label, error) {
	alts := [][]label{nil}
	for _, e := range p.Edges {
		if e.Logical() {
			return nil, ErrLogicalBelowConstructed
		}
		var ms [][]label // what each match of the edge adds, in document order
		for _, r := range x.relatives(n, e.Axis) {
			sub, err := x.memMatch(r.node, e.To)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				if e.To.LCL > 0 || r.under != seq.NoNode {
					s = append([]label{{e.To.LCL, r.node, r.under}}, s...)
				}
				ms = append(ms, s)
			}
		}
		switch {
		case len(ms) == 0 && !e.Spec.Optional():
			return nil, nil
		case len(ms) == 0:
		case e.Spec.Nested():
			for j := range alts {
				for _, s := range ms {
					alts[j] = append(alts[j], s...)
				}
			}
		default:
			next := make([][]label, 0, len(alts)*len(ms))
			for _, a := range alts {
				for _, s := range ms {
					next = append(next, append(a[:len(a):len(a)], s...))
				}
			}
			if alts = next; len(alts) > maxAlternatives {
				return nil, &ExplosionError{Limit: maxAlternatives}
			}
		}
	}
	return alts, nil
}

// memMatch is memAlts for a node not yet tested against p itself; a node
// that is shadowed or fails p's test or predicate has no alternatives.
func (x *extender) memMatch(k seq.NodeID, p *pattern.Node) ([][]label, error) {
	if x.a.Node(k).Shadowed || !x.matchesTest(k, p) || !x.predHolds(k, p.Pred) {
		return nil, nil
	}
	return x.memAlts(k, p)
}

// relatives returns the children or descendants of n, shadowed ones
// included, in document order, as labels without a class. A stored node
// that is not materialized stands for its stored subtree: the relatives
// below it are read from the columns, as fresh nodes outside the tree to
// be placed under it, and the nodes a match attached to it are not
// consulted.
func (x *extender) relatives(n seq.NodeID, axis pattern.Axis) []label {
	if nn := x.a.Node(n); nn.IsStore() && !nn.Full {
		return x.storedRelatives(nil, n, axis)
	}
	var out []label
	var visit func(k seq.NodeID)
	visit = func(k seq.NodeID) {
		out = append(out, label{node: k})
		switch kn := x.a.Node(k); {
		case axis == pattern.Child:
		case kn.IsStore() && !kn.Full:
			out = x.storedRelatives(out, k, axis)
		default:
			for _, c := range x.a.Kids(k) {
				visit(c)
			}
		}
	}
	for _, k := range x.a.Kids(n) {
		visit(k)
	}
	return out
}

// storedRelatives appends to out the stored children or descendants of
// the stored node n, each to be placed under n.
func (x *extender) storedRelatives(out []label, n seq.NodeID, axis pattern.Axis) []label {
	nn := x.a.Node(n)
	d := x.m.st.Doc(nn.Doc)
	for c := nn.Ord + 1; c <= d.End(nn.Ord); c++ {
		out = append(out, label{node: x.slab.StoreNodeOf(nn.Doc, c, d), under: n})
		if axis == pattern.Child {
			c = d.End(c)
		}
	}
	return out
}

// matchesTest reports whether the in-memory node satisfies the pattern
// node's tag test.
func (x *extender) matchesTest(n seq.NodeID, p *pattern.Node) bool {
	switch p.Kind {
	case pattern.TestTag:
		return x.a.Tag(x.m.st, n) == p.Tag
	case pattern.TestWildcard:
		return x.a.Node(n).Kind == xmltree.Element
	default:
		return false
	}
}

// predHolds evaluates an optional content predicate against a node.
func (x *extender) predHolds(n seq.NodeID, p *pattern.Predicate) bool {
	return p == nil || p.Eval(x.a.Content(x.m.st, n))
}
