// Package nav implements the navigational baseline of Section 6.1: a
// recursive tree-walking interpreter for the same XQuery fragment. It uses
// no indexes and no joins — every path step "traverses down a path by
// recursively getting all children of a node and checking them for a
// condition on content or name", paying one store read per visited node.
// Correlated predicates come for free from the nested-loop evaluation
// order, which is also why navigation is insensitive to the
// heterogeneity instigators that hurt TAX and GTP, but degrades with path
// length, fan-out and '//' steps (Section 6.3).
package nav

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"tlc/internal/failure"
	"tlc/internal/governor"
	"tlc/internal/pattern"
	"tlc/internal/physical"
	"tlc/internal/seq"
	"tlc/internal/store"
	"tlc/internal/xquery"
)

// Run evaluates the query against the store by navigation and returns the
// result sequence (one tree per binding tuple, as for the algebraic
// engines).
func Run(st *store.Store, f *xquery.FLWOR) (seq.Seq, error) {
	return RunContext(context.Background(), st, f)
}

// RunContext evaluates like Run under goCtx: the interpreter polls the
// context every physical.PollStride visited nodes and per binding tuple,
// so a deadline or client disconnect stops a long navigation mid-walk and
// surfaces as goCtx.Err(). A governor carried by goCtx budgets the walk
// the same way it budgets the algebraic engines (arena slabs at
// allocation, wall time at the poll sites), and RunContext is a
// containment barrier: interpreter panics come back as errors.
func RunContext(goCtx context.Context, st *store.Store, f *xquery.FLWOR) (out seq.Seq, err error) {
	if err := goCtx.Err(); err != nil {
		return nil, err
	}
	defer failure.Recover(&err, "nav.Run")
	gov := governor.FromContext(goCtx)
	a := seq.NewArena().WithGovernor(gov)
	ev := &evaluator{st: st, goCtx: goCtx, gov: gov, arena: a, slab: a.Hold()}
	defer a.Release(ev.slab)
	return ev.flwor(f, env{})
}

type evaluator struct {
	st    *store.Store
	goCtx context.Context
	// gov budgets the walk; nil when the query is ungoverned.
	gov *governor.Governor
	// arena holds the visited-node wrappers: navigation wraps every
	// fetched child in a fresh witness node, which made it by far the
	// allocation-heaviest engine. The evaluation runs on one goroutine, so
	// it holds one slab of the arena, slab, throughout.
	arena *seq.Arena
	slab  *seq.Slab
	// steps counts poll sites passed; every physical.PollStride-th one
	// reads the context. cancelErr latches the first cancellation so walks
	// that cannot return an error themselves (descendantsNamed) abort
	// early and the nearest error-returning frame reports it.
	steps     int
	cancelErr error
}

// poll advances the visit counter and returns the latched or freshly
// observed cancellation error, if any.
func (ev *evaluator) poll() error {
	if ev.cancelErr != nil {
		return ev.cancelErr
	}
	ev.steps++
	if ev.steps%physical.PollStride == 0 && ev.goCtx != nil {
		ev.cancelErr = ev.goCtx.Err()
		if ev.cancelErr == nil {
			ev.cancelErr = ev.gov.Check()
		}
	}
	return ev.cancelErr
}

// env is the variable environment: each variable binds to one node (FOR)
// or a node sequence (LET).
type env map[string][]seq.NodeID

func (e env) extend(name string, nodes []seq.NodeID) env {
	ne := make(env, len(e)+1)
	for k, v := range e {
		ne[k] = v
	}
	ne[name] = nodes
	return ne
}

// flwor evaluates a FLWOR block under the given environment.
func (ev *evaluator) flwor(f *xquery.FLWOR, e env) (seq.Seq, error) {
	type row struct {
		tree *seq.Tree
		keys []string
	}
	var rows []row
	var loop func(i int, e env) error
	loop = func(i int, e env) error {
		if i == len(f.Bindings) {
			keep, err := ev.whereHolds(f.Where, e)
			if err != nil {
				return err
			}
			if !keep {
				return nil
			}
			// ORDER BY keys are evaluated in the binding-tuple
			// environment, before the output is constructed.
			var keys []string
			for _, k := range f.OrderBy {
				vs, err := ev.values(k.Path, e)
				if err != nil {
					return err
				}
				if len(vs) == 0 {
					keys = append(keys, "￿") // missing sorts last
				} else {
					keys = append(keys, vs[0])
				}
			}
			tree, err := ev.buildReturn(f.Return, e)
			if err != nil {
				return err
			}
			rows = append(rows, row{tree: tree, keys: keys})
			// The accumulated result rows are this engine's only
			// intermediate sequence; budget them like an operator output.
			if err := ev.gov.CheckCard(len(rows)); err != nil {
				return err
			}
			return nil
		}
		if err := ev.poll(); err != nil {
			return err
		}
		b := f.Bindings[i]
		var nodes []seq.NodeID
		if b.Sub != nil {
			sub, err := ev.flwor(b.Sub, e)
			if err != nil {
				return err
			}
			for _, t := range sub {
				nodes = append(nodes, t.Root)
			}
		} else {
			var err error
			nodes, err = ev.path(b.Path, e)
			if err != nil {
				return err
			}
		}
		if b.Kind == xquery.BindLet {
			return loop(i+1, e.extend(b.Var, nodes))
		}
		for _, n := range nodes {
			if err := loop(i+1, e.extend(b.Var, []seq.NodeID{n})); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0, e); err != nil {
		return nil, err
	}
	if len(f.OrderBy) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			for j, k := range f.OrderBy {
				c := compareValues(rows[a].keys[j], rows[b].keys[j])
				if c == 0 {
					continue
				}
				if k.Descending {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	out := make(seq.Seq, len(rows))
	for i, r := range rows {
		out[i] = r.tree
	}
	return out, nil
}

func compareValues(a, b string) int {
	af, aerr := strconv.ParseFloat(a, 64)
	bf, berr := strconv.ParseFloat(b, 64)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// path evaluates a simple path by navigation, returning matching nodes in
// document order.
func (ev *evaluator) path(p *xquery.Path, e env) ([]seq.NodeID, error) {
	var cur []seq.NodeID
	switch p.Root {
	case xquery.RootDocument:
		id, ok := ev.st.Lookup(p.Doc)
		if !ok {
			return nil, fmt.Errorf("nav: document %q not loaded", p.Doc)
		}
		nd := ev.st.Node(id, 0)
		cur = []seq.NodeID{ev.slab.StoreNode(id, 0, nd.Kind)}
	default:
		bound, ok := e[p.Var]
		if !ok {
			return nil, fmt.Errorf("nav: unbound variable %s", p.Var)
		}
		cur = bound
	}
	for _, s := range p.Steps {
		var next []seq.NodeID
		for _, n := range cur {
			if err := ev.poll(); err != nil {
				return nil, err
			}
			if s.Axis == pattern.Child {
				next = append(next, ev.childrenNamed(n, s.Name)...)
			} else {
				next = append(next, ev.descendantsNamed(n, s.Name)...)
			}
		}
		cur = next
	}
	if ev.cancelErr != nil {
		return nil, ev.cancelErr
	}
	return cur, nil
}

// childrenNamed returns the children of n with the given tag, reading the
// store for store references and the in-memory kids for temporaries.
func (ev *evaluator) childrenNamed(n seq.NodeID, tag string) []seq.NodeID {
	var out []seq.NodeID
	for _, k := range ev.children(n) {
		if ev.arena.Tag(ev.st, k) == tag {
			out = append(out, k)
		}
	}
	return out
}

func (ev *evaluator) descendantsNamed(n seq.NodeID, tag string) []seq.NodeID {
	var out []seq.NodeID
	var walk func(x seq.NodeID)
	walk = func(x seq.NodeID) {
		// A deep '//' walk is the navigational engine's dominant cost;
		// abort it as soon as a poll observes cancellation (the caller
		// reports the latched error).
		if ev.poll() != nil {
			return
		}
		for _, k := range ev.children(x) {
			if ev.arena.Tag(ev.st, k) == tag {
				out = append(out, k)
			}
			walk(k)
		}
	}
	walk(n)
	return out
}

// children enumerates a node's children, paying store reads for stored
// nodes (this is the navigational cost model: every visited child is a
// node fetch).
func (ev *evaluator) children(id seq.NodeID) []seq.NodeID {
	n := ev.arena.Node(id)
	if !n.IsStore() || n.Full {
		return ev.arena.Kids(id)
	}
	ords := ev.st.Children(n.Doc, n.Ord)
	out := make([]seq.NodeID, 0, len(ords))
	d := ev.st.Doc(n.Doc)
	for _, o := range ords {
		out = append(out, ev.slab.StoreNodeOf(n.Doc, o, d))
	}
	return out
}
