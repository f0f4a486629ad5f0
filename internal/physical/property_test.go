package physical

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tlc/internal/pattern"
	"tlc/internal/randdoc"
	"tlc/internal/seq"
	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// This file cross-checks the matcher against a brute-force reference
// evaluator on randomly generated documents and patterns. The reference
// enumerates witness trees directly from the semantics of Definition 3 (and
// of the logical annotations of DESIGN.md §15) by scanning the whole
// document per pattern node; it shares no code with the matcher and is the
// only other implementation of pattern matching kept in the repository.
// Witness order and class-member order are compared as produced, not
// sorted: both are part of what the operators above the matcher rely on.

// patternGen grows random APTs: up to budget nodes below a given root, with
// content predicates (GT scans, EQ goes through the value index), NOT edges
// and OR groups whose subtrees are anonymous as Validate demands.
type patternGen struct {
	rng    *rand.Rand
	lcl    int
	group  int
	budget int
}

func (g *patternGen) node(labelled bool) *pattern.Node {
	n := pattern.NewTagNode(0, string(rune('a'+g.rng.Intn(3))))
	if labelled {
		g.lcl++
		n.LCL = g.lcl
	}
	switch g.rng.Intn(8) {
	case 0:
		n.Pred = &pattern.Predicate{Op: pattern.GT, Value: fmt.Sprint(g.rng.Intn(4))}
	case 1:
		n.Pred = &pattern.Predicate{Op: pattern.EQ, Value: fmt.Sprint(g.rng.Intn(5))}
	}
	g.budget--
	return n
}

// grow adds nodes below root until the budget is spent.
func (g *patternGen) grow(root *pattern.Node) {
	specs := []pattern.MSpec{pattern.One, pattern.ZeroOrOne, pattern.OneOrMore, pattern.ZeroOrMore}
	type slot struct {
		n        *pattern.Node
		labelled bool
	}
	nodes := []slot{{root, true}}
	for g.budget > 0 {
		parent := nodes[g.rng.Intn(len(nodes))]
		axis := pattern.Axis(g.rng.Intn(2))
		switch kind := g.rng.Intn(8); {
		case kind == 0 && g.budget >= 2:
			g.group++
			for i := 0; i < 2; i++ {
				child := g.node(false)
				parent.n.Edges = append(parent.n.Edges, pattern.Edge{
					Axis: pattern.Axis(g.rng.Intn(2)), To: child, Group: g.group, Not: g.rng.Intn(3) == 0,
				})
				nodes = append(nodes, slot{child, false})
			}
		case kind == 1:
			child := g.node(false)
			parent.n.Edges = append(parent.n.Edges, pattern.Edge{Axis: axis, To: child, Not: true})
			nodes = append(nodes, slot{child, false})
		default:
			child := g.node(parent.labelled)
			parent.n.Add(child, axis, specs[g.rng.Intn(4)])
			nodes = append(nodes, slot{child, parent.labelled})
		}
	}
}

// genPattern builds a random APT rooted at the document with 1-6 nodes.
func genPattern(g *patternGen) *pattern.Tree {
	g.lcl++
	root := pattern.NewDocRoot(g.lcl, randdoc.Name)
	g.budget = 1 + g.rng.Intn(6)
	g.grow(root)
	return &pattern.Tree{Root: root}
}

// genExtension builds a random extension APT with 1-4 nodes anchored at
// class inClass, relabelling the anchor half of the time.
func genExtension(g *patternGen, inClass int) *pattern.Tree {
	anchor := pattern.NewLCAnchor(inClass, inClass)
	if g.rng.Intn(2) == 0 {
		g.lcl++
		anchor.LCL = g.lcl
	}
	g.budget = 1 + g.rng.Intn(4)
	g.grow(anchor)
	return &pattern.Tree{Root: anchor}
}

// refWitness is one witness tree as the operators see it: per class, the
// member ordinals in classification order.
type refWitness map[int][]int32

func (w refWitness) merge(o refWitness) refWitness {
	m := refWitness{}
	for k, v := range w {
		m[k] = append(m[k], v...)
	}
	for k, v := range o {
		m[k] = append(m[k], v...)
	}
	return m
}

// reference evaluates patterns by direct recursion over Definition 3: for
// each candidate x of a pattern node, each plain edge contributes either
// the clustered set of all matching relatives ("+"/"*") or a choice over
// single relatives ("-"/"?"); the result is the cross product of the edge
// choices, first edge outermost. A NOT edge kills x when its subtree has a
// match below x; an OR group, where its first member stands, when no member
// is satisfied.
type reference struct{ d *store.Doc }

func (r reference) below(p *pattern.Node, anc int32, axis pattern.Axis) []int32 {
	var out []int32
	aid := r.d.ID(anc)
	for i := 0; i < r.d.Len(); i++ {
		ord := int32(i)
		if r.d.Tag(ord) != p.Tag || !aid.Contains(r.d.ID(ord)) {
			continue
		}
		if axis == pattern.Child && r.d.Level(ord) != aid.Level+1 {
			continue
		}
		if p.Pred != nil && !p.Pred.Eval(r.d.Content(ord)) {
			continue
		}
		out = append(out, ord)
	}
	return out
}

func (r reference) exists(e pattern.Edge, ord int32) bool {
	for _, c := range r.below(e.To, ord, e.Axis) {
		if len(r.match(e.To, c, true)) > 0 {
			return true
		}
	}
	return false
}

// match returns the witnesses of the subtree of p at ord; own says whether
// ord itself joins class p.LCL (an extension anchor is already a member of
// the class it is anchored at).
func (r reference) match(p *pattern.Node, ord int32, own bool) []refWitness {
	base := refWitness{}
	if own && p.LCL > 0 {
		base[p.LCL] = []int32{ord}
	}
	results := []refWitness{base}
	for i, e := range p.Edges {
		if e.Group > 0 {
			pass := false
			for j, m := range p.Edges {
				if m.Group != e.Group {
					continue
				}
				if j < i {
					pass = true // decided where the first member stands
					break
				}
				if r.exists(m, ord) != m.Not {
					pass = true
				}
			}
			if !pass {
				return nil
			}
			continue
		}
		if e.Not {
			if r.exists(e, ord) {
				return nil
			}
			continue
		}
		var subs []refWitness // every sub-witness of every candidate, in order
		for _, c := range r.below(e.To, ord, e.Axis) {
			subs = append(subs, r.match(e.To, c, true)...)
		}
		var edgeAlts []refWitness
		switch {
		case len(subs) == 0 && !e.Spec.Optional():
			return nil
		case len(subs) == 0:
			edgeAlts = []refWitness{{}}
		case e.Spec.Nested():
			// Join semantics (Section 5.2, normative): the cluster contains
			// every matched sub-witness of every candidate — a candidate
			// whose flat descendants multiply contributes one cluster entry
			// per alternative.
			cluster := refWitness{}
			for _, w := range subs {
				cluster = cluster.merge(w)
			}
			edgeAlts = []refWitness{cluster}
		default:
			edgeAlts = subs
		}
		var next []refWitness
		for _, res := range results {
			for _, ea := range edgeAlts {
				next = append(next, res.merge(ea))
			}
		}
		results = next
	}
	return results
}

// extend is the reference for MatchExtend: every member of the anchored
// class must be satisfied in every output witness, so a witness multiplies
// by the cross product of its anchors' alternatives, first anchor outermost.
func (r reference) extend(in []refWitness, anchor *pattern.Node) []refWitness {
	var out []refWitness
	for _, w := range in {
		results := []refWitness{w}
		for _, ord := range w[anchor.InClass] {
			alts := r.match(anchor, ord, anchor.LCL != anchor.InClass)
			var next []refWitness
			for _, res := range results {
				for _, a := range alts {
					next = append(next, res.merge(a))
				}
			}
			results = next
		}
		out = append(out, results...)
	}
	return out
}

// render prints witnesses in order, members in order.
func render(ws []refWitness) string {
	lines := make([]string, 0, len(ws))
	for _, w := range ws {
		var ks []int
		for k, v := range w {
			if len(v) > 0 {
				ks = append(ks, k)
			}
		}
		sort.Ints(ks)
		var sb strings.Builder
		for _, k := range ks {
			fmt.Fprintf(&sb, "%d=%v;", k, w[k])
		}
		lines = append(lines, sb.String())
	}
	return strings.Join(lines, "\n")
}

func witnessesOf(res seq.Seq) []refWitness {
	out := make([]refWitness, 0, len(res))
	for _, t := range res {
		w := refWitness{}
		for _, lcl := range t.Classes() {
			for _, n := range t.Class(lcl) {
				w[lcl] = append(w[lcl], t.Node(n).Ord)
			}
		}
		out = append(out, w)
	}
	return out
}

// checkStructure verifies what the class view does not show: Parent links
// and that every classified node hangs in its tree.
func checkStructure(res seq.Seq) error {
	for i, t := range res {
		inTree := map[seq.NodeID]bool{}
		var bad error
		t.Walk(t.Root, func(n seq.NodeID) bool {
			inTree[n] = true
			for _, k := range t.Kids(n) {
				if t.Node(k).Parent != n {
					bad = fmt.Errorf("tree %d: kid %d of %d has parent %v", i, t.Node(k).Ord, t.Node(n).Ord, t.Node(k).Parent)
				}
			}
			return true
		})
		if bad != nil {
			return bad
		}
		for _, lcl := range t.Classes() {
			for _, n := range t.ClassAll(lcl) {
				if !inTree[n] {
					return fmt.Errorf("tree %d: class %d member %d is not in the tree", i, lcl, t.Node(n).Ord)
				}
			}
		}
	}
	return nil
}

// docXML serializes a generated document for a failure message.
func docXML(doc *xmltree.Document) string {
	var sb strings.Builder
	doc.WriteXML(&sb, doc.Root())
	return sb.String()
}

// checkCase runs one generated (document, pattern, extension) case: the
// document match against the reference, then the extension of its output
// through one matcher in two chunks.
func checkCase(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	doc := randdoc.Generate(rng, 60)
	st := store.New()
	id, err := st.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	g := &patternGen{rng: rng}
	apt := genPattern(g)
	if err := apt.Validate(); err != nil {
		t.Fatalf("seed %d: generated an invalid pattern: %v\n%s", seed, err, apt)
	}
	ref := reference{d: st.Doc(id)}
	ctx := context.Background()
	match := func(m *Matcher) seq.Seq {
		res, err := m.MatchDocument(ctx, apt)
		if err != nil {
			t.Fatalf("seed %d: match: %v\npattern:\n%s", seed, err, apt)
		}
		return res
	}
	want := ref.match(apt.Root, 0, true)
	res := match(NewMatcher(st))
	if got := render(witnessesOf(res)); got != render(want) {
		t.Fatalf("seed %d: match differs\npattern:\n%sdoc: %s\ngot:\n%s\nwant:\n%s", seed, apt, docXML(doc), got, render(want))
	}
	if err := checkStructure(res); err != nil {
		t.Fatalf("seed %d: match: %v\npattern:\n%s", seed, err, apt)
	}

	// Anchor the extension at a class the first pattern binds.
	labelled := apt.Nodes()[1:]
	var classes []int
	for _, n := range labelled {
		if n.LCL > 0 {
			classes = append(classes, n.LCL)
		}
	}
	if len(classes) == 0 {
		return
	}
	ext := genExtension(g, classes[rng.Intn(len(classes))])
	if err := ext.Validate(); err != nil {
		t.Fatalf("seed %d: generated an invalid extension: %v\n%s", seed, err, ext)
	}
	wantExt := render(ref.extend(want, ext.Root))
	// One matcher, arena-backed as in evaluation, extends the match in two
	// chunks: the second call reads the vectors the first one cached.
	m := NewMatcher(st).WithArena(seq.NewArena())
	in := match(m) // MatchExtend consumes its input
	cut := len(in) / 2
	var out seq.Seq
	for _, chunk := range []seq.Seq{in[:cut:cut], in[cut:]} {
		half, err := m.MatchExtend(ctx, chunk, ext)
		if err != nil {
			t.Fatalf("seed %d: extend: %v\nextension:\n%s", seed, err, ext)
		}
		out = append(out, half...)
	}
	if got := render(witnessesOf(out)); got != wantExt {
		t.Fatalf("seed %d: extend differs\npattern:\n%sextension:\n%sdoc: %s\ngot:\n%s\nwant:\n%s",
			seed, apt, ext, docXML(doc), got, wantExt)
	}
	if err := checkStructure(out); err != nil {
		t.Fatalf("seed %d: extend: %v\nextension:\n%s", seed, err, ext)
	}
}

const propertyCases = 400

// TestPropertyMatchAgainstReference runs the matcher against the reference
// evaluator on many random (document, pattern, extension) triples.
func TestPropertyMatchAgainstReference(t *testing.T) {
	for i := 0; i < propertyCases; i++ {
		checkCase(t, int64(i))
	}
}

// FuzzMatch lets the fuzzer pick the seed of the generated case; the corpus
// starts from the fixed cases of the property test.
func FuzzMatch(f *testing.F) {
	for i := 0; i < propertyCases; i++ {
		f.Add(int64(i))
	}
	f.Fuzz(checkCase)
}
