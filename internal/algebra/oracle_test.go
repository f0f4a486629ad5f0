package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/randdoc"
	"tlc/internal/seq"
	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// This file checks the operators that restructure the witness trees they
// own in place — Project, NodeIDDE, the value join ("-" and nest), the
// join's stitching, and Construct — against a reference evaluator that
// shares no code with this package. The reference holds trees as plain
// structs, maps and slices, never changes a tree it is given, and
// implements each operator from its definition (Section 2.3): every step
// builds fresh output trees. Inputs are witness trees matched over the
// random documents of the matcher's own reference test, run through
// chains of two to four operators; after every operator the output trees,
// their class tables and their order must equal the reference's, and a
// bystander sequence built in the same arena but given to no operator
// must not have changed.

// rnode is one node of a reference tree. Identity is what node-identifier
// operators compare: the ordinal of a store reference, the temporary ID of
// a temporary node (a copy keeps the identity of its original).
type rnode struct {
	store    bool
	ord      int32
	id       int64
	kind     xmltree.Kind
	tag, val string
	shadowed bool
	kids     []*rnode
}

func (n *rnode) key() string {
	if n.store {
		return fmt.Sprintf("s%d", n.ord)
	}
	return fmt.Sprintf("t%d", n.id)
}

// rtree is a reference witness tree: a root and its class table, each
// class's members in order.
type rtree struct {
	root    *rnode
	classes map[int][]*rnode
}

// refEval is the reference evaluator's state: the store contents are read
// from, and the counter fresh temporary nodes draw their identities from
// (far above any real temporary ID, so the two never collide).
type refEval struct {
	st   *store.Store
	next int64
}

func (r *refEval) fresh(kind xmltree.Kind, tag, val string) *rnode {
	r.next++
	return &rnode{id: 1<<48 + r.next, kind: kind, tag: tag, val: val}
}

// active returns the members of class lcl that are not shadowed.
func active(t rtree, lcl int) []*rnode {
	var out []*rnode
	for _, m := range t.classes[lcl] {
		if !m.shadowed {
			out = append(out, m)
		}
	}
	return out
}

// content is the textual content of a node: the stored content of a store
// reference, the value of a temporary attribute or text node, and the
// concatenated direct text children of a temporary element.
func (r *refEval) content(n *rnode) string {
	if n.store {
		return r.st.Content(0, n.ord)
	}
	if n.kind != xmltree.Element {
		return n.val
	}
	var sb strings.Builder
	for _, k := range n.kids {
		if k.kind == xmltree.Text {
			sb.WriteString(r.content(k))
		}
	}
	return sb.String()
}

// copyTree deep-copies the subtree under n, recording original → copy in
// m (when m is not nil).
func copyTree(n *rnode, m map[*rnode]*rnode) *rnode {
	c := *n
	c.kids = nil
	for _, k := range n.kids {
		c.kids = append(c.kids, copyTree(k, m))
	}
	if m != nil {
		m[n] = &c
	}
	return &c
}

// clone deep-copies a whole reference tree with its class table.
func clone(t rtree) (rtree, map[*rnode]*rnode) {
	m := map[*rnode]*rnode{}
	out := rtree{root: copyTree(t.root, m), classes: map[int][]*rnode{}}
	for lcl, ms := range t.classes {
		for _, x := range ms {
			if c, ok := m[x]; ok {
				x = c
			}
			out.classes[lcl] = append(out.classes[lcl], x)
		}
	}
	return out, m
}

// project implements Project: the members of the kept classes move, with
// their subtrees, under the root, in pre-order — a kept node below a kept
// node stays where it is — and only the kept classes stay in the table.
func (r *refEval) project(in []rtree, keep []int) []rtree {
	var out []rtree
	for _, t := range in {
		kept := map[*rnode]bool{}
		for _, lcl := range keep {
			for _, x := range t.classes[lcl] {
				kept[x] = true
			}
		}
		var tops []*rnode
		var collect func(n *rnode)
		collect = func(n *rnode) {
			for _, k := range n.kids {
				if kept[k] {
					tops = append(tops, k)
				} else {
					collect(k)
				}
			}
		}
		collect(t.root)
		m := map[*rnode]*rnode{}
		root := *t.root
		root.kids = nil
		m[t.root] = &root
		for _, top := range tops {
			root.kids = append(root.kids, copyTree(top, m))
		}
		nt := rtree{root: &root, classes: map[int][]*rnode{}}
		for lcl, ms := range t.classes {
			if !slices.Contains(keep, lcl) {
				continue
			}
			for _, x := range ms {
				nt.classes[lcl] = append(nt.classes[lcl], m[x])
			}
		}
		out = append(out, nt)
	}
	return out
}

// dupElim implements NodeIDDE: the first tree of every combination of
// identities bound to the listed classes survives; a class binding two or
// more active nodes is an error.
func (r *refEval) dupElim(in []rtree, on []int) ([]rtree, error) {
	seen := map[string]bool{}
	var out []rtree
	for _, t := range in {
		var key []string
		for _, lcl := range on {
			ms := active(t, lcl)
			switch len(ms) {
			case 0:
				key = append(key, "-")
			case 1:
				key = append(key, ms[0].key())
			default:
				return nil, fmt.Errorf("class %d binds %d nodes", lcl, len(ms))
			}
		}
		k := strings.Join(key, ",")
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out, nil
}

// stitch implements the join output of Section 2.3: a fresh root whose
// children are the left root and the right roots, its class (when
// positive) holding the root first, then the left's members, then each
// right's.
func (r *refEval) stitch(tag string, rootLCL int, left rtree, rights []rtree) rtree {
	l, _ := clone(left)
	root := r.fresh(xmltree.Element, tag, "")
	root.kids = []*rnode{l.root}
	out := rtree{root: root, classes: map[int][]*rnode{}}
	if rootLCL > 0 {
		out.classes[rootLCL] = []*rnode{root}
	}
	add := func(t rtree) {
		for lcl, ms := range t.classes {
			out.classes[lcl] = append(out.classes[lcl], ms...)
		}
	}
	add(l)
	for _, rt := range rights {
		c, _ := clone(rt)
		root.kids = append(root.kids, c.root)
		add(c)
	}
	return out
}

// valueJoin implements the value join: a left tree pairs with every right
// tree whose join class shares a value with its own under op, existentially
// over the active members; a class with no active member pairs with
// nothing. Output follows the left order, pairs the right order; "?" and
// "*" keep an unpaired left tree, "+" and "*" cluster all partners under
// one root.
func (r *refEval) valueJoin(left, right []rtree, pred JoinPred, spec pattern.MSpec, rootLCL int) []rtree {
	values := func(t rtree, lcl int) []string {
		var vs []string
		for _, m := range active(t, lcl) {
			vs = append(vs, r.content(m))
		}
		return vs
	}
	var out []rtree
	for _, l := range left {
		lv := values(l, pred.LeftLCL)
		if len(lv) == 0 {
			continue
		}
		var partners []rtree
		for _, rt := range right {
			rv := values(rt, pred.RightLCL)
			hit := false
			for _, a := range lv {
				for _, b := range rv {
					hit = hit || pattern.Compare(pred.Op, a, b)
				}
			}
			if hit {
				partners = append(partners, rt)
			}
		}
		switch {
		case len(partners) == 0 && spec.Optional():
			out = append(out, r.stitch("join_root", rootLCL, l, nil))
		case len(partners) == 0:
		case spec.Nested():
			out = append(out, r.stitch("join_root", rootLCL, l, partners))
		default:
			for _, p := range partners {
				out = append(out, r.stitch("join_root", rootLCL, l, []rtree{p}))
			}
		}
	}
	return out
}

// cartesian implements the predicate-free join: every left tree with every
// right tree, left outermost.
func (r *refEval) cartesian(left, right []rtree, rootLCL int) []rtree {
	var out []rtree
	for _, l := range left {
		for _, rt := range right {
			out = append(out, r.stitch("join_root", rootLCL, l, []rtree{rt}))
		}
	}
	return out
}

// construct implements Construct: one output tree per input tree, built
// from the pattern. A class reference to a store reference emits one store
// reference; one to a temporary node copies its subtree together with the
// labels of the nodes below it. Labels are added in the order the pattern
// produces the nodes: an element's after its children's, a copied node's
// after those of the nodes below it.
func (r *refEval) construct(in []rtree, pat *pattern.ConstructNode) []rtree {
	var out []rtree
	for _, t := range in {
		labels := map[*rnode][]int{}
		for lcl, ms := range t.classes {
			for _, x := range ms {
				labels[x] = append(labels[x], lcl)
			}
		}
		for _, ls := range labels {
			sort.Ints(ls)
		}
		nt := rtree{classes: map[int][]*rnode{}}
		add := func(lcl int, n *rnode) {
			if lcl > 0 {
				nt.classes[lcl] = append(nt.classes[lcl], n)
			}
		}
		var build func(c *pattern.ConstructNode) []*rnode
		build = func(c *pattern.ConstructNode) []*rnode {
			switch c.Kind {
			case pattern.ConstructElement:
				el := r.fresh(xmltree.Element, c.Tag, "")
				for _, a := range c.Attrs {
					val := a.Literal
					if a.FromLCL > 0 {
						ms := active(t, a.FromLCL)
						if len(ms) == 0 {
							continue
						}
						val = r.content(ms[0])
					}
					el.kids = append(el.kids, r.fresh(xmltree.Attribute, a.Tag, val))
				}
				for _, ch := range c.Children {
					el.kids = append(el.kids, build(ch)...)
				}
				add(c.NewLCL, el)
				return []*rnode{el}
			case pattern.ConstructSubtree:
				var nodes []*rnode
				for _, m := range active(t, c.FromLCL) {
					var cp *rnode
					if m.store {
						cp = &rnode{store: true, ord: m.ord, kind: m.kind, tag: m.tag, val: m.val}
					} else {
						mp := map[*rnode]*rnode{}
						cp = copyTree(m, mp)
						var walk func(x *rnode)
						walk = func(x *rnode) {
							for _, k := range x.kids {
								for _, lcl := range labels[k] {
									add(lcl, mp[k])
								}
								walk(k)
							}
						}
						walk(m)
					}
					add(c.NewLCL, cp)
					nodes = append(nodes, cp)
				}
				return nodes
			case pattern.ConstructText:
				var nodes []*rnode
				for _, m := range active(t, c.FromLCL) {
					txt := r.fresh(xmltree.Text, xmltree.TextTag, r.content(m))
					add(c.NewLCL, txt)
					nodes = append(nodes, txt)
				}
				return nodes
			default:
				return []*rnode{r.fresh(xmltree.Text, xmltree.TextTag, c.Literal)}
			}
		}
		nodes := build(pat)
		if len(nodes) == 1 {
			nt.root = nodes[0]
		} else {
			nt.root = r.fresh(xmltree.Element, "result", "")
			nt.root.kids = nodes
		}
		out = append(out, nt)
	}
	return out
}

// render prints reference trees in order: each tree's nodes in pre-order
// (store references by ordinal, temporary nodes by kind, tag and value,
// shadowed ones marked), then every non-empty class with its members as
// pre-order positions (a member outside the tree by its identity).
func render(ts []rtree) string {
	var sb strings.Builder
	for i, t := range ts {
		pos := map[*rnode]int{}
		var walk func(n *rnode)
		walk = func(n *rnode) {
			pos[n] = len(pos)
			if n.store {
				fmt.Fprintf(&sb, "S%d", n.ord)
			} else {
				fmt.Fprintf(&sb, "T%d:%s=%q", n.kind, n.tag, n.val)
			}
			if n.shadowed {
				sb.WriteByte('~')
			}
			if len(n.kids) > 0 {
				sb.WriteByte('(')
				for j, k := range n.kids {
					if j > 0 {
						sb.WriteByte(' ')
					}
					walk(k)
				}
				sb.WriteByte(')')
			}
		}
		fmt.Fprintf(&sb, "tree %d: ", i)
		walk(t.root)
		var ls []int
		for lcl, ms := range t.classes {
			if len(ms) > 0 {
				ls = append(ls, lcl)
			}
		}
		sort.Ints(ls)
		for _, lcl := range ls {
			fmt.Fprintf(&sb, " %d=[", lcl)
			for j, m := range t.classes[lcl] {
				if j > 0 {
					sb.WriteByte(' ')
				}
				if p, ok := pos[m]; ok {
					fmt.Fprint(&sb, p)
				} else {
					sb.WriteString("out:" + m.key())
				}
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// toRef converts witness trees into reference trees.
func toRef(st *store.Store, s seq.Seq) []rtree {
	out := make([]rtree, 0, len(s))
	for _, t := range s {
		m := map[seq.NodeID]*rnode{}
		var conv func(id seq.NodeID) *rnode
		conv = func(id seq.NodeID) *rnode {
			n := t.Node(id)
			r := &rnode{store: n.IsStore(), ord: n.Ord, id: n.TempID, kind: n.Kind, shadowed: n.Shadowed}
			if !r.store {
				r.tag = t.Arena().Tag(st, id)
				if n.Kind != xmltree.Element {
					r.val = t.Content(st, id)
				}
			}
			m[id] = r
			for _, k := range t.Kids(id) {
				r.kids = append(r.kids, conv(k))
			}
			return r
		}
		rt := rtree{root: conv(t.Root), classes: map[int][]*rnode{}}
		for _, lcl := range t.Classes() {
			for _, id := range t.ClassAll(lcl) {
				r, ok := m[id]
				if !ok {
					n := t.Node(id)
					r = &rnode{store: n.IsStore(), ord: n.Ord, id: n.TempID}
				}
				rt.classes[lcl] = append(rt.classes[lcl], r)
			}
		}
		out = append(out, rt)
	}
	return out
}

// oracleCase is one generated chain of operators over one random document.
type oracleCase struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	st   *store.Store
	ctx  *Context
	ref  *refEval
	lcl  int // last label handed out
	log  []string
}

// match runs a random document-rooted pattern: a node of a random tag
// anywhere, with one to three labelled branches of random axis and
// matching specification, one of them possibly a level deeper.
func (c *oracleCase) match() seq.Seq {
	tag := func() string { return string(rune('a' + c.rng.Intn(3))) }
	specs := []pattern.MSpec{pattern.One, pattern.ZeroOrOne, pattern.OneOrMore, pattern.ZeroOrMore}
	root := pattern.NewDocRoot(0, randdoc.Name)
	c.lcl++
	top := root.Add(pattern.NewTagNode(c.lcl, tag()), pattern.Descendant, pattern.One)
	nodes := []*pattern.Node{top}
	for i := c.rng.Intn(3) + 1; i > 0; i-- {
		c.lcl++
		parent := nodes[c.rng.Intn(len(nodes))]
		nodes = append(nodes, parent.Add(pattern.NewTagNode(c.lcl, tag()), pattern.Axis(c.rng.Intn(2)), specs[c.rng.Intn(4)]))
	}
	apt := &pattern.Tree{Root: root}
	res, err := c.ctx.Matcher.MatchDocument(context.Background(), apt)
	if err != nil {
		c.t.Fatalf("seed %d: match: %v\n%s", c.seed, err, apt)
	}
	return res
}

// classes returns the labels the sequence binds, sorted.
func classes(s seq.Seq) []int {
	var out []int
	for _, t := range s {
		for _, l := range t.Classes() {
			if len(t.ClassAll(l)) > 0 && !slices.Contains(out, l) {
				out = append(out, l)
			}
		}
	}
	sort.Ints(out)
	return out
}

// pick returns a random label of ls, or 0 when there is none.
func (c *oracleCase) pick(ls []int) int {
	if len(ls) == 0 {
		return 0
	}
	return ls[c.rng.Intn(len(ls))]
}

// constructPattern builds a random construct pattern over the labels ls:
// an element whose children are class references (subtree, text),
// literals and nested elements with attributes, labelled with fresh
// labels so that a following Construct can reference the temporary
// subtrees. A pattern with one subtree reference lets Construct move the
// referenced temporary subtrees; one with several makes it copy them.
func (c *oracleCase) constructPattern(ls []int, depth int) *pattern.ConstructNode {
	el := pattern.NewElement(string(rune('p' + c.rng.Intn(3))))
	if c.rng.Intn(2) == 0 {
		el.Attrs = append(el.Attrs, pattern.ConstructAttr{Tag: "@v", FromLCL: c.pick(ls)})
	}
	if c.rng.Intn(4) == 0 {
		el.Attrs = append(el.Attrs, pattern.ConstructAttr{Tag: "@k", Literal: "x"})
	}
	for i := c.rng.Intn(3) + 1; i > 0; i-- {
		var ch *pattern.ConstructNode
		switch k := c.rng.Intn(6); {
		case k <= 1 && len(ls) > 0:
			ch = &pattern.ConstructNode{Kind: pattern.ConstructSubtree, FromLCL: c.pick(ls)}
		case k == 2 && len(ls) > 0:
			ch = &pattern.ConstructNode{Kind: pattern.ConstructText, FromLCL: c.pick(ls)}
		case k == 3 && depth < 2:
			ch = c.constructPattern(ls, depth+1)
		default:
			ch = &pattern.ConstructNode{Kind: pattern.ConstructLiteral, Literal: "l"}
		}
		if ch.Kind != pattern.ConstructLiteral && c.rng.Intn(3) > 0 {
			c.lcl++
			ch.NewLCL = c.lcl
		}
		el.Children = append(el.Children, ch)
	}
	if depth == 0 && c.rng.Intn(3) > 0 {
		c.lcl++
		el.NewLCL = c.lcl
	}
	return el
}

// step applies one random operator to in, checks the output against the
// reference, and returns it.
func (c *oracleCase) step(in seq.Seq) seq.Seq {
	ls := classes(in)
	want := toRef(c.st, in)
	var op Op
	var refOut []rtree
	var refErr error
	ins := []seq.Seq{in}
	switch k := c.rng.Intn(5); {
	case k == 0 && len(ls) > 0:
		var keep []int
		for _, l := range ls {
			if c.rng.Intn(2) == 0 {
				keep = append(keep, l)
			}
		}
		if len(keep) == 0 {
			keep = []int{c.pick(ls)}
		}
		op = NewProject(nil, keep...)
		refOut = c.ref.project(want, keep)
	case k == 1 && len(ls) > 0:
		on := []int{c.pick(ls)}
		if c.rng.Intn(2) == 0 {
			on = append(on, c.pick(ls))
		}
		op = NewDupElim(nil, on...)
		refOut, refErr = c.ref.dupElim(want, on)
	case k == 2 && len(ls) > 0:
		right := c.match()
		rls := classes(right)
		c.lcl++
		rootLCL := c.lcl
		if len(rls) == 0 || c.rng.Intn(4) == 0 {
			op = NewCartesianJoin(nil, nil, rootLCL)
			refOut = c.ref.cartesian(want, toRef(c.st, right), rootLCL)
		} else {
			ops := []pattern.Cmp{pattern.EQ, pattern.EQ, pattern.NE, pattern.LT, pattern.GE}
			specs := []pattern.MSpec{pattern.One, pattern.ZeroOrOne, pattern.OneOrMore, pattern.ZeroOrMore}
			pred := JoinPred{LeftLCL: c.pick(ls), Op: ops[c.rng.Intn(len(ops))], RightLCL: c.pick(rls)}
			j := NewValueJoin(nil, nil, pred, specs[c.rng.Intn(4)], rootLCL)
			j.ForceNestedLoop = c.rng.Intn(4) == 0
			op = j
			refOut = c.ref.valueJoin(want, toRef(c.st, right), pred, j.RightSpec, rootLCL)
		}
		ins = append(ins, right)
	default:
		pat := c.constructPattern(ls, 0)
		op = NewConstruct(nil, pat)
		refOut = c.ref.construct(want, pat)
	}
	c.log = append(c.log, strings.TrimSpace(op.Label()))
	got, err := op.eval(c.ctx, ins)
	if (err != nil) != (refErr != nil) {
		c.t.Fatalf("seed %d: %s: error %v, reference error %v\nchain:\n%s", c.seed, op.Label(), err, refErr, strings.Join(c.log, "\n"))
	}
	if err != nil {
		return nil
	}
	if g, w := render(toRef(c.st, got)), render(refOut); g != w {
		c.t.Fatalf("seed %d: %s differs from the reference\nchain:\n%s\ninput:\n%sgot:\n%swant:\n%s",
			c.seed, op.Label(), strings.Join(c.log, "\n"), render(want), g, w)
	}
	return got
}

// checkOperators runs one generated chain of two to four operators.
func checkOperators(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := store.New()
	if _, err := st.Load(randdoc.Generate(rng, 40)); err != nil {
		t.Fatal(err)
	}
	c := &oracleCase{t: t, seed: seed, rng: rng, st: st, ctx: NewContext(st), ref: &refEval{st: st}}
	in := c.match()
	bystander := c.match()
	before := render(toRef(st, bystander))
	for i := 2 + rng.Intn(3); i > 0 && len(in) > 0; i-- {
		in = c.step(in)
	}
	if after := render(toRef(st, bystander)); after != before {
		t.Fatalf("seed %d: a sequence no operator owned changed\nchain:\n%s\nbefore:\n%safter:\n%s",
			seed, strings.Join(c.log, "\n"), before, after)
	}
}

const oracleCases = 300

// FuzzOperators lets the fuzzer pick the seed of a generated operator
// chain; the corpus is the fixed seeds below, which the plain test run
// executes.
func FuzzOperators(f *testing.F) {
	for i := 0; i < oracleCases; i++ {
		f.Add(int64(i))
	}
	f.Fuzz(checkOperators)
}
