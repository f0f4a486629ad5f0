// Package physical implements the physical operators of Section 5 of the
// TLC paper: annotated-pattern-tree matching compiled to structural joins
// (with the nest variants of Definition 8), the sort–merge–sort value join
// that preserves document order (Section 5.1), and the grouping machinery
// that the TAX and GTP baselines rely on instead of nest-joins.
//
// Pattern matching follows Section 5.2: every pattern edge is a structural
// join over interval identifiers, and the edge's matching specification
// picks the variant — "-" a regular join, "?" a left-outer join, "+" a
// nest-join and "*" a left-outer-nest-join. The joins run on integers: per
// pattern node the matcher keeps one sorted vector of ordinals (the tag or
// tag+value postings, semi-joined bottom-up against the vectors of the
// required, NOT and OR edges below it), and witness trees are built from
// those vectors on demand, once, for the nodes a witness tree contains.
package physical

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"tlc/internal/faultinject"
	"tlc/internal/pattern"
	"tlc/internal/seq"
	"tlc/internal/store"
)

// Matcher executes annotated pattern trees against a store. It caches one
// vec per (document, pattern node), so a pattern used over a whole sequence
// probes each index and runs each semi-join once — the set-at-a-time
// behaviour of a structural join — rather than once per input tree.
type Matcher struct {
	st   *store.Store
	vecs map[vecKey]*vec
	// arena backs the witness nodes, child lists and vectors this matcher
	// creates; without WithArena the matcher makes one of its own.
	arena *seq.Arena
}

type vecKey struct {
	doc  store.DocID
	node *pattern.Node
}

// vec is what the matcher knows about one pattern node in one document.
type vec struct {
	p *pattern.Node
	// ords are the ordinals, in document order, at which the pattern
	// subtree rooted at p has at least one match. Nil for an extension
	// anchor, whose nodes come from the input trees.
	ords []int32
	// edges[i] is the vec of p.Edges[i].To.
	edges []*vec
	// flat lists, in pattern pre-order, the plain "-"/"?" edges reachable
	// from p through such edges only: the digits of the odometer that
	// enumerates the alternatives of one match of p. A "+"/"*" edge ends
	// the closure — everything below it is clustered, not chosen.
	flat []choice
}

// choice is one digit of a vec's odometer: a "-" or "?" edge.
type choice struct {
	v *vec
	// from is the digit whose chosen node this edge hangs off, -1 for the
	// enumerated node itself.
	from int
	axis pattern.Axis
	opt  bool
}

// NewMatcher returns a matcher over st for single-goroutine use.
func NewMatcher(st *store.Store) *Matcher {
	return &Matcher{st: st, vecs: make(map[vecKey]*vec)}
}

// WithArena makes the matcher allocate from a and returns the matcher for
// chaining. Set once, before use.
func (m *Matcher) WithArena(a *seq.Arena) *Matcher {
	m.arena = a
	return m
}

// MatchDocument evaluates an APT rooted at a document-root test and returns
// the full set of witness trees in document order of their roots. The
// context is polled inside the matching loops, so cancellation stops a
// large match mid-way.
func (m *Matcher) MatchDocument(ctx context.Context, apt *pattern.Tree) (seq.Seq, error) {
	if err := apt.Validate(); err != nil {
		return nil, err
	}
	if apt.Root.Kind != pattern.TestDocRoot {
		return nil, fmt.Errorf("physical: MatchDocument needs a doc_root pattern, got kind %d", apt.Root.Kind)
	}
	doc, ok := m.st.Lookup(apt.Root.Doc)
	if !ok {
		return nil, fmt.Errorf("physical: document %q not loaded", apt.Root.Doc)
	}
	v, err := m.vector(ctx, doc, apt.Root)
	if err != nil || len(v.ords) == 0 {
		return nil, err
	}
	b := m.builder(ctx, nil)
	defer b.a.Release(b.slab)
	b.doc, b.d = doc, m.st.Doc(doc)
	var out seq.Seq
	if len(v.flat) > 0 {
		// As many trees as the first "-" edge has matches, when nothing
		// else multiplies: the usual FOR $x IN //tag.
		out = make(seq.Seq, 0, len(v.flat[0].v.ords))
	}
	od := b.odometer(v, v.ords[0])
	for ok := od.reset(0); ok && b.err == nil; ok = od.next() {
		b.t = b.slab.NewTree(seq.NoNode)
		b.t.Root = b.node(v, v.ords[0], &od, 0)
		out = append(out, b.t)
	}
	return out, b.err
}

// vector returns the vec of pattern node p in doc, computing it on a miss:
// the candidates of p, reduced to those at which every edge of p that can
// fail — required, NOT, OR group — holds against the vecs of the nodes
// below. A tree pattern is acyclic, so this bottom-up pass leaves exactly
// the ordinals with a match; nothing built from them is ever discarded.
func (m *Matcher) vector(ctx context.Context, doc store.DocID, p *pattern.Node) (*vec, error) {
	key := vecKey{doc: doc, node: p}
	if v, ok := m.vecs[key]; ok {
		return v, nil
	}
	if err := poll(ctx, 0); err != nil {
		return nil, err
	}
	if err := faultinject.Hit(faultinject.PointMatcher); err != nil {
		return nil, err
	}
	v := &vec{p: p, edges: make([]*vec, len(p.Edges))}
	for i, e := range p.Edges {
		cv, err := m.vector(ctx, doc, e.To)
		if err != nil {
			return nil, err
		}
		v.edges[i] = cv
		if e.Logical() || e.Spec.Nested() {
			continue
		}
		at := len(v.flat)
		v.flat = append(v.flat, choice{v: cv, from: -1, axis: e.Axis, opt: e.Spec.Optional()})
		for _, c := range cv.flat {
			if c.from++; c.from > 0 {
				c.from += at // hangs off a digit of cv's own closure, now shifted
			} else {
				c.from = at // hangs off cv's node: the digit just added
			}
			v.flat = append(v.flat, c)
		}
	}
	if p.Kind != pattern.TestLC {
		ords, err := m.candidates(doc, p)
		if err != nil {
			return nil, err
		}
		if v.ords, err = m.reduce(ctx, m.st.Doc(doc), v, ords); err != nil {
			return nil, err
		}
	}
	m.vecs[key] = v
	return v, nil
}

// climbRatio is how many times shorter than the candidate list the vector
// below a required edge must be for the semi-join to start from it.
// Climbing costs a Parent chain and a binary search per child; probing
// costs a binary search per candidate.
const climbRatio = 16

// reduce filters the candidates of v.p down to the ordinals at which the
// pattern subtree matches. The join direction follows the smaller side:
// where the vector below a required edge is much shorter than the candidate
// list (the one @id that equals "person77" against every person), its
// ordinals climb Doc.Parent to the candidates they qualify; everything else
// — NOT edges and OR groups, whose result is as long as the candidate list
// whichever side drives — is probed from the candidate, by binary search
// in the child vector. ords is the store's posting list and is never
// written.
func (m *Matcher) reduce(ctx context.Context, d *store.Doc, v *vec, ords []int32) ([]int32, error) {
	canFail := false
	for i, e := range v.p.Edges {
		if e.Logical() {
			canFail = true
		} else if !e.Spec.Optional() {
			canFail = true
			if c := v.edges[i].ords; len(c)*climbRatio < len(ords) {
				ords = climb(d, ords, c, e.Axis)
			}
		}
	}
	if !canFail || len(ords) == 0 {
		return ords, nil
	}
	out := m.arena.Ordinals(len(ords))
	for i, x := range ords {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		if v.holds(d, x) {
			out = append(out, x)
		}
	}
	return out, nil
}

// climb returns the members of ords that have a child (or descendant) in c,
// walking up from c.
func climb(d *store.Doc, ords, c []int32, axis pattern.Axis) []int32 {
	var hits []int32
	for _, o := range c {
		for a := d.Parent(o); a >= 0; a = d.Parent(a) {
			if _, ok := slices.BinarySearch(ords, a); ok {
				hits = append(hits, a)
			}
			if axis == pattern.Child {
				break
			}
		}
	}
	slices.Sort(hits)
	return slices.Compact(hits)
}

// holds reports whether the node at x satisfies every edge of v.p that can
// fail it: a required edge needs a relative in the child vec, a NOT edge
// none, and an OR group — decided once, at its first member — one member
// that is satisfied.
func (v *vec) holds(d *store.Doc, x int32) bool {
	edges := v.p.Edges
	for i := range edges {
		e := &edges[i]
		switch {
		case e.Group > 0:
			pass := !opensGroup(edges, i)
			for j := i; j < len(edges) && !pass; j++ {
				pass = edges[j].Group == e.Group && related(d, v.edges[j].ords, x, edges[j].Axis) != edges[j].Not
			}
			if !pass {
				return false
			}
		case e.Not:
			if related(d, v.edges[i].ords, x, e.Axis) {
				return false
			}
		case !e.Spec.Optional():
			if !related(d, v.edges[i].ords, x, e.Axis) {
				return false
			}
		}
	}
	return true
}

// opensGroup reports whether edge i is the first member of its OR group.
func opensGroup(edges []pattern.Edge, i int) bool {
	for _, e := range edges[:i] {
		if e.Group == edges[i].Group {
			return false
		}
	}
	return true
}

// related reports whether some member of ords is a child (or descendant) of
// the node at x.
func related(d *store.Doc, ords []int32, x int32, axis pattern.Axis) bool {
	return relative(d, ords, after(ords, x), x, axis) >= 0
}

// after returns the index of the first member of ords greater than x — the
// first that can lie inside x's interval, since start and ordinal coincide.
func after(ords []int32, x int32) int {
	lo, hi := 0, len(ords)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ords[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// relative returns the index of the first member of ords at or after index
// i that is a child (or descendant) of the node at x, or -1. Within x's
// interval a node one level deeper is necessarily a child.
func relative(d *store.Doc, ords []int32, i int, x int32, axis pattern.Axis) int {
	end := d.End(x)
	if axis == pattern.Descendant {
		if i < len(ords) && ords[i] <= end {
			return i
		}
		return -1
	}
	for want := d.Level(x) + 1; i < len(ords) && ords[i] <= end; i++ {
		if d.Level(ords[i]) == want {
			return i
		}
	}
	return -1
}

// odometer enumerates the alternatives of one match: the combinations of
// one child per "-"/"?" edge in the flat closure of its pattern node, in
// the order nested loops over the edges would produce them, first edge
// outermost.
type odometer struct {
	d    *store.Doc
	flat []choice
	x    int32
	// pos[i] indexes flat[i].v.ords; -1 where an optional edge has no
	// match or hangs off a node that is itself absent.
	pos []int32
}

// above returns the ordinal digit i's edge hangs off, -1 when absent.
func (o *odometer) above(i int) int32 {
	f := o.flat[i].from
	if f < 0 {
		return o.x
	}
	if o.pos[f] < 0 {
		return -1
	}
	return o.flat[f].v.ords[o.pos[f]]
}

// reset puts digits i.. on their first child. It reports false when a
// required edge has none, which only an extension anchor can cause: every
// other node comes from a reduced vector.
func (o *odometer) reset(i int) bool {
	for ; i < len(o.flat); i++ {
		c := &o.flat[i]
		o.pos[i] = -1
		if up := o.above(i); up >= 0 {
			o.pos[i] = int32(relative(o.d, c.v.ords, after(c.v.ords, up), up, c.axis))
			if o.pos[i] < 0 && !c.opt {
				return false
			}
		}
	}
	return true
}

// next advances to the following alternative; false after the last.
func (o *odometer) next() bool {
	for i := len(o.flat) - 1; i >= 0; i-- {
		if o.pos[i] < 0 {
			continue
		}
		c := &o.flat[i]
		if j := relative(o.d, c.v.ords, int(o.pos[i])+1, o.above(i), c.axis); j >= 0 {
			o.pos[i] = int32(j)
			return o.reset(i + 1)
		}
	}
	return false
}

// builder writes witness subtrees for demanded (pattern node, ordinal)
// pairs straight into the tree that consumes them: nodes and exactly sized
// child lists from the arena, class members appended to the tree's table
// in the pre-order the pattern's edges dictate.
type builder struct {
	m   *Matcher
	ctx context.Context
	doc store.DocID
	d   *store.Doc
	t   *seq.Tree
	a   *seq.Arena
	// slab is held for the length of the MatchDocument or MatchExtend call.
	slab *seq.Slab
	// digits is the stack odometers take their positions from; spans the
	// one kids keeps, per "+"/"*" edge, where its relatives start in the
	// child vector and how many nodes they contribute.
	digits, spans []int32
	built         int
	err           error // first poll failure; the enumerating loops stop on it
}

// builder returns a builder holding a slab of a — by default the
// matcher's arena, made on first use — which the caller releases.
func (m *Matcher) builder(ctx context.Context, a *seq.Arena) builder {
	if m.arena == nil {
		m.arena = seq.NewArena()
	}
	a = cmp.Or(a, m.arena)
	return builder{m: m, ctx: ctx, a: a, slab: a.Hold()}
}

// odometer returns an unset odometer for the match of v at x; release it
// with b.release once done (stack order).
func (b *builder) odometer(v *vec, x int32) odometer {
	at := len(b.digits)
	b.digits = append(b.digits, make([]int32, len(v.flat))...)
	return odometer{d: b.d, flat: v.flat, x: x, pos: b.digits[at:len(b.digits):len(b.digits)]}
}

func (b *builder) release(od *odometer) { b.digits = b.digits[:len(b.digits)-len(od.pos)] }

// node builds the witness subtree of the match of v at x that od currently
// selects; base is the digit v's own flat closure starts at.
func (b *builder) node(v *vec, x int32, od *odometer, base int) seq.NodeID {
	if b.built++; b.built%PollStride == 0 && b.err == nil {
		b.err = poll(b.ctx, 0)
	}
	n := b.slab.StoreNodeOf(b.doc, x, b.d)
	b.t.AddToClass(v.p.LCL, n)
	b.kids(v, x, n, od, base)
	return n
}

// kids attaches under n, the witness node of x, what the plain edges of v
// contribute: the chosen child of each "-"/"?" edge and every alternative
// of every relative of each "+"/"*" edge. A counting pass over the vectors
// comes first, so the child list and the clustered classes grow once.
func (b *builder) kids(v *vec, x int32, n seq.NodeID, od *odometer, base int) {
	add, digit, mark := 0, base, len(b.spans)
	for i, e := range v.p.Edges {
		cv := v.edges[i]
		switch {
		case e.Logical():
		case e.Spec.Nested():
			first := relative(b.d, cv.ords, after(cv.ords, x), x, e.Axis)
			count := b.cluster(cv, x, e.Axis, first, seq.NoNode)
			b.spans = append(b.spans, int32(first), int32(count))
			add += count
		default:
			if od.pos[digit] >= 0 {
				add++
			}
			digit += 1 + len(cv.flat)
		}
	}
	if add == 0 {
		b.spans = b.spans[:mark]
		return
	}
	b.a.GrowKids(n, add)
	digit, span := base, mark
	for i, e := range v.p.Edges {
		cv := v.edges[i]
		switch {
		case e.Logical():
		case e.Spec.Nested():
			first, count := int(b.spans[span]), int(b.spans[span+1])
			span += 2
			b.t.Grow(cv.p.LCL, count)
			b.cluster(cv, x, e.Axis, first, n)
		default:
			if j := od.pos[digit]; j >= 0 {
				b.a.Attach(n, b.node(cv, cv.ords[j], od, digit+1))
			}
			digit += 1 + len(cv.flat)
		}
	}
	b.spans = b.spans[:mark]
}

// cluster visits every alternative of every child (or descendant) of x in
// cv — what a nest-join clusters under one parent — from index first of
// cv.ords on, and returns how many there are; with a parent it also builds
// and attaches them.
func (b *builder) cluster(cv *vec, x int32, axis pattern.Axis, first int, parent seq.NodeID) int {
	ords, n := cv.ords, 0
	if len(cv.flat) == 0 && parent == seq.NoNode && axis == pattern.Descendant && first >= 0 {
		return after(ords, b.d.End(x)) - first
	}
	for i := first; i >= 0 && b.err == nil; i = relative(b.d, ords, i+1, x, axis) {
		if len(cv.flat) == 0 {
			if n++; parent != seq.NoNode {
				b.a.Attach(parent, b.node(cv, ords[i], nil, 0))
			}
			continue
		}
		od := b.odometer(cv, ords[i])
		for ok := od.reset(0); ok; ok = od.next() {
			if n++; parent != seq.NoNode {
				b.a.Attach(parent, b.node(cv, ords[i], &od, 0))
			}
		}
		b.release(&od)
	}
	return n
}

// candidates returns the document-ordered candidate ordinals for one
// pattern node: its tag postings, merged with the value index for an
// equality predicate and scanned for any other.
func (m *Matcher) candidates(doc store.DocID, p *pattern.Node) ([]int32, error) {
	var ords []int32
	switch p.Kind {
	case pattern.TestDocRoot:
		if m.st.Doc(doc).Name() != p.Doc {
			return nil, fmt.Errorf("physical: pattern document %q does not match %q", p.Doc, m.st.Doc(doc).Name())
		}
		ords = []int32{0}
	case pattern.TestTag:
		switch {
		case p.Pred != nil && p.Pred.Op == pattern.EQ:
			// Equality content predicates are answered by merging the tag
			// and value indexes, as in the paper's experimental setup.
			ords = m.st.TagValue(doc, p.Tag, p.Pred.Value)
		case p.Pred != nil:
			for _, o := range m.st.Tag(doc, p.Tag) {
				if p.Pred.Eval(m.st.Content(doc, o)) {
					ords = append(ords, o)
				}
			}
		default:
			ords = m.st.Tag(doc, p.Tag)
		}
	case pattern.TestWildcard:
		return nil, fmt.Errorf("physical: wildcard node tests are not supported in stored matches")
	default:
		return nil, fmt.Errorf("physical: unknown node test kind %d", p.Kind)
	}
	return ords, nil
}
