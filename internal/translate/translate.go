// Package translate implements Algorithm TLC (Figure 6 of the paper): it
// compiles the XQuery fragment of Figure 5 into TLC algebra plans.
//
// The shape of the generated plans follows the paper's worked examples
// (Figures 7 and 8): one Select per document-rooted FOR/LET clause with a
// Cartesian Join stitching multiple clauses, WHERE conditions accreted into
// the selects' annotated pattern trees (simple predicates with "-" edges,
// aggregate paths with "*" edges plus an Aggregate/Filter pair spliced
// above the owning Select, value-join paths with "-" edges feeding the Join
// predicate), then Project over the bound variables, NodeIDDE over the
// FOR-bound variables, one extension Select per RETURN path, and a final
// Construct. Nested FLWORs translate recursively; correlated predicates are
// deferred to a Join between the outer and inner plans, with the inner
// join values threaded through the inner Project and Construct so they
// survive to the join (the LCL=9 threading of Figure 8).
package translate

import (
	"fmt"

	"tlc/internal/algebra"
	"tlc/internal/pattern"
	"tlc/internal/xquery"
)

// Result is a translated query.
type Result struct {
	// Plan is the root of the TLC algebra plan.
	Plan algebra.Op
	// RootLCL is the logical class of the constructed result roots.
	RootLCL int
	// TagOf maps every assigned logical class label to the tag (or
	// doc_root/construct tag) it classifies — diagnostic metadata used by
	// plan explanation and the rewriter.
	TagOf map[int]string
	// VarLCLs are the classes bound to FOR/LET variables across every
	// block (outer and nested), in binding order. The TAX baseline uses
	// them to decide which subtrees to materialize early.
	VarLCLs []int
	// DocNames are the documents the query reads, in first-use order.
	DocNames []string
}

// Options tune the translation. There is nothing left to tune: the type
// and TranslateOpts remain because the repository benchmark (bench/, not
// part of this module's build) constructs them.
type Options struct{}

// TranslateOpts is Translate; see Options.
func TranslateOpts(f *xquery.FLWOR, _ Options) (*Result, error) { return Translate(f) }

// Translate compiles a parsed query into a TLC plan.
func Translate(f *xquery.FLWOR) (*Result, error) {
	counter := 0
	tagOf := make(map[int]string)
	shared := &sharedState{}
	t := &translator{lclCounter: &counter, tagOf: tagOf, shared: shared}
	res, err := t.block(f)
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:     res.plan,
		RootLCL:  res.rootLCL,
		TagOf:    tagOf,
		VarLCLs:  shared.varLCLs,
		DocNames: shared.docNames,
	}, nil
}

// bindKind discriminates variable bindings.
type bindKind uint8

const (
	bindPattern   bindKind = iota // a node of some select's APT
	bindConstruct                 // the construct result of a nested FLWOR
)

type binding struct {
	kind bindKind
	// pattern binding
	sel  *algebra.Select
	node *pattern.Node
	// construct binding
	construct *pattern.ConstructNode
	rootLCL   int
	// isFor marks FOR (vs LET) bindings; NodeIDDE applies to FOR only.
	isFor bool
}

type joinInfo struct {
	op        *algebra.Join
	leftVars  map[string]bool
	rightVars map[string]bool
}

type deferredPred struct {
	outerLCL int
	op       pattern.Cmp // oriented outer-side-first
	innerLCL int
}

type blockResult struct {
	plan    algebra.Op
	pat     *pattern.ConstructNode
	rootLCL int
}

// sharedState is carried by every translator of one query (outer and
// nested blocks alike).
type sharedState struct {
	varLCLs  []int
	docNames []string
	// groupCounter hands out OR-group identifiers, unique per query.
	groupCounter int
}

func (s *sharedState) nextGroup() int {
	s.groupCounter++
	return s.groupCounter
}

type translator struct {
	parent     *translator
	lclCounter *int
	tagOf      map[int]string
	shared     *sharedState

	root     algebra.Op
	vars     map[string]*binding
	varOrder []string
	joins    []joinInfo
	// boundVars tracks which select each variable's pattern lives in, for
	// locating the join that should receive a value-join predicate.
	selectVars map[*algebra.Select]map[string]bool
	// deferred collects correlated predicates referencing outer variables;
	// the enclosing block turns them into the outer-inner Join condition.
	deferred []deferredPred
	// exports are inner classes that must survive this block's Project and
	// Construct because an outer Join references them.
	exports []int
}

func (t *translator) newLCL(tag string) int {
	*t.lclCounter++
	t.tagOf[*t.lclCounter] = tag
	return *t.lclCounter
}

func (t *translator) lookup(name string) (*binding, *translator) {
	for tr := t; tr != nil; tr = tr.parent {
		if b, ok := tr.vars[name]; ok {
			return b, tr
		}
	}
	return nil, nil
}

// block translates one FLWOR block (the SingleBlock procedure).
func (t *translator) block(f *xquery.FLWOR) (*blockResult, error) {
	t.vars = make(map[string]*binding)
	t.selectVars = make(map[*algebra.Select]map[string]bool)

	for _, b := range f.Bindings {
		if err := t.bind(b); err != nil {
			return nil, err
		}
	}
	if t.root == nil {
		return nil, fmt.Errorf("translate: block binds no data source")
	}
	if f.Where != nil {
		if err := t.where(f.Where); err != nil {
			return nil, err
		}
	}
	if err := t.orderBy(f.OrderBy); err != nil {
		return nil, err
	}
	return t.processReturn(f)
}

// bind processes one FOR/LET clause.
func (t *translator) bind(b xquery.Binding) error {
	if _, dup := t.vars[b.Var]; dup {
		return fmt.Errorf("translate: variable %s bound twice", b.Var)
	}
	if b.Sub != nil {
		return t.bindNested(b)
	}
	spec := pattern.One
	if b.Kind == xquery.BindLet {
		spec = pattern.ZeroOrMore
	}
	path := b.Path
	switch path.Root {
	case xquery.RootDocument:
		if len(path.Steps) == 0 {
			return fmt.Errorf("translate: %s binds a bare document", b.Var)
		}
		if t.shared != nil && !contains(t.shared.docNames, path.Doc) {
			t.shared.docNames = append(t.shared.docNames, path.Doc)
		}
		root := pattern.NewDocRoot(t.newLCL("doc_root"), path.Doc)
		leaf, err := t.extendChain(root, path.Steps, spec)
		if err != nil {
			return err
		}
		sel := algebra.NewSelect(&pattern.Tree{Root: root})
		t.addSource(sel, b.Var)
		t.setVar(b.Var, &binding{kind: bindPattern, sel: sel, node: leaf, isFor: b.Kind == xquery.BindFor})
		return nil
	default: // variable-rooted
		vb, _ := t.lookup(path.Var)
		if vb == nil {
			return fmt.Errorf("translate: %s references unbound variable %s", b.Var, path.Var)
		}
		if vb.kind != bindPattern {
			return fmt.Errorf("translate: FOR/LET over construct-bound variable %s is not supported", path.Var)
		}
		if len(path.Steps) == 0 {
			return fmt.Errorf("translate: %s aliases %s without a path", b.Var, path.Var)
		}
		leaf, err := t.extendChain(vb.node, path.Steps, spec)
		if err != nil {
			return err
		}
		t.setVar(b.Var, &binding{kind: bindPattern, sel: vb.sel, node: leaf, isFor: b.Kind == xquery.BindFor})
		if set := t.selectVars[vb.sel]; set != nil {
			set[b.Var] = true
		}
		return nil
	}
}

// addSource hooks a fresh document Select into the block plan: the first
// source becomes the root, later ones are stitched with a Cartesian Join
// that a value join predicate may later refine.
func (t *translator) addSource(sel *algebra.Select, varName string) {
	t.selectVars[sel] = map[string]bool{varName: true}
	if t.root == nil {
		t.root = sel
		return
	}
	leftVars := t.allBoundVars()
	join := algebra.NewCartesianJoin(t.root, sel, t.newLCL("join_root"))
	t.joins = append(t.joins, joinInfo{
		op:        join,
		leftVars:  leftVars,
		rightVars: map[string]bool{varName: true},
	})
	t.root = join
}

func (t *translator) allBoundVars() map[string]bool {
	out := make(map[string]bool, len(t.varOrder))
	for _, v := range t.varOrder {
		out[v] = true
	}
	return out
}

func (t *translator) setVar(name string, b *binding) {
	t.vars[name] = b
	t.varOrder = append(t.varOrder, name)
	if b.node != nil && b.node.LCL == 0 {
		b.node.LCL = t.newLCL(tagOfNode(b.node))
	}
	if t.shared != nil {
		if b.node != nil {
			t.shared.varLCLs = append(t.shared.varLCLs, b.node.LCL)
		} else if b.rootLCL > 0 {
			t.shared.varLCLs = append(t.shared.varLCLs, b.rootLCL)
		}
	}
}

// extendChain grows the APT below from with one pattern node per step,
// every node freshly labelled, all edges carrying spec (the SPtoAPT +
// addToAPT helpers of Figure 6).
func (t *translator) extendChain(from *pattern.Node, steps []xquery.Step, spec pattern.MSpec) (*pattern.Node, error) {
	cur := from
	for _, s := range steps {
		n := pattern.NewTagNode(t.newLCL(s.Name), s.Name)
		cur.Add(n, s.Axis, spec)
		cur = n
	}
	return cur, nil
}

func tagOfNode(n *pattern.Node) string {
	switch n.Kind {
	case pattern.TestDocRoot:
		return "doc_root"
	case pattern.TestTag:
		return n.Tag
	default:
		return "?"
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
