// Package mutate is the MVCC update subsystem: it turns user-level
// subtree operations — insert, delete, replace — into the store's splice
// primitive, applies write budgets, retries optimistic-concurrency
// conflicts with a jittered backoff, and keeps the process-wide update
// counters the service and shell surface.
//
// Every update is one splice on one document: the target is resolved by a
// simple absolute path (`/site/people/person[2]`, attribute steps like
// `@id` last) or a raw preorder ordinal (`#17`) against the document
// version current at that attempt; the splice builds a whole new document
// version off to the side, and the commit swaps it in under the store's
// copy-on-write directory. Readers that pinned the store before the
// commit keep the old version to completion — an update never blocks a
// query, and a query never observes a half-applied update. Recovery
// resolves the same way but splices one version per document that it keeps
// to itself, in place, and publishes them all at once (Replay).
//
// Deleting an element that sits between two text siblings would leave
// adjacent text nodes — a shape a fresh parse of the serialized document
// could never produce. Apply therefore widens such a deletion to cover
// both neighbours and re-inserts one merged text node, keeping the
// parent's concatenated content (which the store's splice invariant
// demands) and the parse-shape canonical form at once.
package mutate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tlc/internal/governor"
	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// Typed request errors.
var (
	// ErrUnknownDocument reports an update naming a document the store
	// does not hold.
	ErrUnknownDocument = errors.New("mutate: unknown document")
	// ErrBadTarget reports a target path or ordinal that does not resolve
	// to a node the operation can apply to.
	ErrBadTarget = errors.New("mutate: bad target")
	// ErrBadRequest reports a structurally invalid request (unknown op,
	// missing or unparsable fragment, bad position).
	ErrBadRequest = errors.New("mutate: bad request")
)

// Kind is the update operation.
type Kind int

const (
	// Insert adds a fragment relative to the target node.
	Insert Kind = iota
	// Delete removes the target subtree (element or attribute).
	Delete
	// Replace swaps the target element subtree for the fragment.
	Replace
)

func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Replace:
		return "replace"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps the wire spelling of an operation to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "insert":
		return Insert, nil
	case "delete":
		return Delete, nil
	case "replace":
		return Replace, nil
	}
	return 0, fmt.Errorf("%w: unknown op %q (insert|delete|replace)", ErrBadRequest, s)
}

// Insert positions.
const (
	// PosInto appends the fragment as the target element's last child
	// (the default).
	PosInto = "into"
	// PosFirst inserts as the first non-attribute child.
	PosFirst = "first"
	// PosBefore inserts as the preceding sibling of the target.
	PosBefore = "before"
	// PosAfter inserts as the following sibling of the target.
	PosAfter = "after"
)

// Request is one update against one document.
type Request struct {
	// Doc names the target document.
	Doc string
	// Op is the operation.
	Op Kind
	// Target locates the node the operation applies to: an absolute path
	// of child steps with optional 1-based indexes and an optional final
	// attribute step (`/site/people/person[2]/@id`), or `#N` for the raw
	// preorder ordinal N.
	Target string
	// Position qualifies Insert: into (default), first, before, after.
	Position string
	// Fragment is the XML to insert (Insert and Replace); its root must
	// be an element.
	Fragment string
}

// wireRequest is the WAL (and HTTP) encoding of a Request: the logical
// operation, not the spliced columns, so replay exercises the same
// resolve/splice/commit path as live traffic.
type wireRequest struct {
	Doc      string `json:"doc"`
	Op       string `json:"op"`
	Target   string `json:"target"`
	Position string `json:"position,omitempty"`
	Fragment string `json:"fragment,omitempty"`
}

// EncodeRequest serializes a Request for the write-ahead log.
func EncodeRequest(req Request) ([]byte, error) {
	return json.Marshal(wireRequest{
		Doc:      req.Doc,
		Op:       req.Op.String(),
		Target:   req.Target,
		Position: req.Position,
		Fragment: req.Fragment,
	})
}

// DecodeRequest parses a WAL record payload back into the Request it was
// encoded from. Errors wrap ErrBadRequest: a payload that passed the
// log's CRC but does not decode is a version-skew or corruption bug, not
// a user error.
func DecodeRequest(data []byte) (Request, error) {
	var w wireRequest
	if err := json.Unmarshal(data, &w); err != nil {
		return Request{}, fmt.Errorf("%w: undecodable update record: %v", ErrBadRequest, err)
	}
	op, err := ParseKind(w.Op)
	if err != nil {
		return Request{}, err
	}
	return Request{Doc: w.Doc, Op: op, Target: w.Target, Position: w.Position, Fragment: w.Fragment}, nil
}

// Result summarizes an applied update.
type Result struct {
	// Doc and Version identify the document version the update produced.
	Doc     string
	Version uint64
	// Nodes is the node count of the new version.
	Nodes int
	// NodesAdded and NodesRemoved count the spliced range.
	NodesAdded, NodesRemoved int
	// StatsDeltas is always 0: there are no statistics to adjust. It
	// remains only because bench/layers.go:365 reads it; the next benchmark
	// change deletes it.
	StatsDeltas int
	// Conflicts counts commit attempts lost to concurrent writers before
	// this one won.
	Conflicts int
}

// maxRetries bounds the commit attempts of one update before the conflict
// is surfaced to the caller. Between attempts the writer waits
// retryBackoff, doubled per retry, plus up to half of it again at random,
// so writers that collided spread out instead of colliding again in
// lockstep.
const (
	maxRetries   = 3
	retryBackoff = 2 * time.Millisecond
)

// Process-wide update counters (mirrored at /varz and in the shell).
var (
	updatesTotal    atomic.Int64
	updateConflicts atomic.Int64
)

// Totals is a snapshot of the process-wide update counters.
type Totals struct {
	// Updates counts committed updates.
	Updates int64
	// Conflicts counts commit attempts lost to a concurrent writer
	// (including ones whose update later succeeded on retry).
	Conflicts int64
}

// Counters returns the process-wide update counters.
func Counters() Totals {
	return Totals{Updates: updatesTotal.Load(), Conflicts: updateConflicts.Load()}
}

// Apply runs one update against the store. The write cost is charged to
// the governor carried by ctx (nodes written and an estimate of bytes),
// so update budgets use the same taxonomy as query budgets. On a commit
// conflict the writer backs off, re-resolves the target against the
// winning version and retries the splice, a bounded number of times; the
// final conflict, if any — also one whose backoff outlived ctx — wraps
// store.ErrVersionConflict.
func Apply(ctx context.Context, st *store.Store, req Request) (Result, error) {
	var res Result
	frag, err := parseRequest(req)
	if err != nil {
		return res, err
	}

	// Serialize the logical operation once, outside the retry loop: the
	// WAL records what was asked, so every attempt logs identical bytes.
	var payload []byte
	if st.LogsCommits() {
		p, err := EncodeRequest(req)
		if err != nil {
			return res, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		payload = p
	}

	// The writer epoch makes the mutation visible to LoadSnapshot, which
	// refuses to rewrite the directory under an in-flight splice.
	release := st.BeginMutation()
	defer release()

	var lastErr error
	for attempt := 0; attempt < maxRetries; attempt++ {
		if attempt > 0 && !sleepBackoff(ctx, attempt) {
			break
		}
		id, ok := st.Lookup(req.Doc)
		if !ok {
			return res, fmt.Errorf("%w: %q", ErrUnknownDocument, req.Doc)
		}
		d := st.Doc(id)
		op, err := resolve(ctx, d, req, frag)
		if err != nil {
			return res, err
		}
		nd, sr, err := st.BuildSplice(d, op)
		if err != nil {
			return res, err
		}
		if err := st.CommitLogged(d, nd, payload); err != nil {
			if errors.Is(err, store.ErrVersionConflict) {
				updateConflicts.Add(1)
				res.Conflicts++
				lastErr = err
				continue
			}
			return res, err
		}
		res.applied(req, nd, sr)
		return res, nil
	}
	return res, lastErr
}

// sleepBackoff waits before the attempt-th retry and reports whether ctx
// was still live when the wait ended.
func sleepBackoff(ctx context.Context, attempt int) bool {
	d := retryBackoff << (attempt - 1)
	d += time.Duration(rand.Int64N(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// parseRequest checks everything about a request that does not depend on a
// document version and parses its fragment (nil for a delete).
func parseRequest(req Request) (*xmltree.Document, error) {
	if req.Op != Delete {
		if strings.TrimSpace(req.Fragment) == "" {
			return nil, fmt.Errorf("%w: %s needs a fragment", ErrBadRequest, req.Op)
		}
	} else if req.Fragment != "" {
		return nil, fmt.Errorf("%w: delete takes no fragment", ErrBadRequest)
	}
	var frag *xmltree.Document
	if req.Op != Delete {
		f, err := store.ParseFragment(req.Fragment)
		if err != nil {
			return nil, fmt.Errorf("%w: fragment: %v", ErrBadRequest, err)
		}
		if f.Nodes[0].Kind != xmltree.Element {
			return nil, fmt.Errorf("%w: fragment root must be an element", ErrBadRequest)
		}
		frag = f
	}
	switch req.Position {
	case "", PosInto, "append", PosFirst, PosBefore, PosAfter:
	default:
		return nil, fmt.Errorf("%w: unknown position %q (into|first|before|after)", ErrBadRequest, req.Position)
	}
	return frag, nil
}

// resolve lowers req to a splice of version d and charges the write to the
// governor carried by ctx. Live and replayed updates both go through it;
// they differ in how the splice is applied.
func resolve(ctx context.Context, d *store.Doc, req Request, frag *xmltree.Document) (store.SpliceOp, error) {
	if err := governor.Poll(ctx); err != nil {
		return store.SpliceOp{}, err
	}
	op, err := buildOp(d, req, frag)
	if err != nil {
		return op, err
	}
	// Charge the write before doing it: new nodes plus an estimate of
	// the column bytes they occupy (8 int32/uint32 columns) and the
	// fragment text.
	var newNodes int64
	if op.Frag != nil {
		newNodes = int64(len(op.Frag.Nodes))
	}
	return op, governor.FromContext(ctx).AddAlloc(newNodes, newNodes*32+int64(len(req.Fragment)))
}

// applied counts one update whose new version nd was accepted and fills in
// its result.
func (res *Result) applied(req Request, nd *store.Doc, sr store.SpliceResult) {
	updatesTotal.Add(1)
	res.Doc = req.Doc
	res.Version = nd.Version()
	res.Nodes = nd.Len()
	res.NodesAdded = sr.NodesAdded
	res.NodesRemoved = sr.NodesRemoved
}

// Replay re-applies a logged sequence of updates on versions only it can
// see, and publishes the outcome once. Per document the log touches it keeps
// one private version: the first record copies the published one, which is
// only ever read, and every record splices the private version's columns in
// place. Nothing derived — the postings — is maintained per record, as
// nobody reads it before Publish, which derives it once per document. Nothing
// reaches the store before Publish either, so a reader admitted during
// recovery sees the documents as the checkpoint left them and then as the
// whole log leaves them, never in between; a replay that fails, or is
// abandoned, leaves the store as it found it.
type Replay struct {
	st      *store.Store
	release func()
	seq     uint64 // sequence number of the newest record applied
	// chains holds, per document touched, the version the directory holds
	// and the private one the replay splices.
	chains map[store.DocID][2]*store.Doc
}

// NewReplay starts a replay at the store's update generation. The replay is
// an in-flight mutation (LoadSnapshot is refused) until Publish or Close.
func NewReplay(st *store.Store) *Replay {
	return &Replay{st: st, release: st.BeginMutation(), seq: st.UpdateGeneration(), chains: make(map[store.DocID][2]*store.Doc)}
}

// Apply re-applies the record logged at sequence number seq, which must be
// past every record applied before it (a log may skip numbers — a snapshot
// loaded at a later generation leaves such a gap — but never repeats or
// reorders them). Validation, target resolution, the governor's charge and
// the update counters are Apply's own.
func (r *Replay) Apply(ctx context.Context, seq uint64, req Request) (Result, error) {
	var res Result
	if seq <= r.seq {
		return res, fmt.Errorf("mutate: replayed record %d does not follow generation %d", seq, r.seq)
	}
	frag, err := parseRequest(req)
	if err != nil {
		return res, err
	}
	id, ok := r.st.Lookup(req.Doc)
	if !ok {
		return res, fmt.Errorf("%w: %q", ErrUnknownDocument, req.Doc)
	}
	c, ok := r.chains[id]
	if !ok {
		c[0] = r.st.Doc(id)
		c[1] = c[0]
	}
	op, err := resolve(ctx, c[1], req, frag)
	if err != nil {
		return res, err
	}
	var sr store.SpliceResult
	if c[1], sr, err = r.st.SplicePrivate(c[1], op); err != nil {
		return res, err
	}
	r.chains[id] = c
	r.seq = seq
	res.applied(req, c[1], sr)
	return res, nil
}

// Publish derives every private version's postings, publishes
// them all over the versions they started from with one directory swap
// (store.CommitPrivate), raises the update generation to the newest sequence
// number applied, and ends the replay. If any document was committed to
// since the replay started, nothing is published.
func (r *Replay) Publish() error {
	defer r.Close()
	pairs := make([][2]*store.Doc, 0, len(r.chains))
	for id := store.DocID(0); int(id) < r.st.NumDocs(); id++ {
		if c, ok := r.chains[id]; ok {
			pairs = append(pairs, c)
		}
	}
	return r.st.CommitPrivate(r.seq, pairs)
}

// Close ends the replay and drops its private versions; without a Publish
// before it, the store is as NewReplay found it.
func (r *Replay) Close() {
	r.chains = nil
	r.release()
}

// buildOp resolves the request target against one document version and
// lowers the operation to a splice.
func buildOp(d *store.Doc, req Request, frag *xmltree.Document) (store.SpliceOp, error) {
	var op store.SpliceOp
	target, err := resolveTarget(d, req.Target)
	if err != nil {
		return op, err
	}
	switch req.Op {
	case Insert:
		return insertOp(d, target, req.Position, frag)
	case Delete:
		return deleteOp(d, target)
	case Replace:
		if target == d.Root() {
			return op, fmt.Errorf("%w: cannot replace the document root", ErrBadTarget)
		}
		if d.Kind(target) != xmltree.Element {
			return op, fmt.Errorf("%w: replace target %q is not an element", ErrBadTarget, req.Target)
		}
		return store.SpliceOp{Parent: d.Parent(target), At: target, DelEnd: d.End(target) + 1, Frag: frag}, nil
	}
	return op, fmt.Errorf("%w: unknown op %d", ErrBadRequest, int(req.Op))
}

func insertOp(d *store.Doc, target int32, pos string, frag *xmltree.Document) (store.SpliceOp, error) {
	var op store.SpliceOp
	switch pos {
	case "", PosInto, "append", PosFirst:
		if d.Kind(target) != xmltree.Element {
			return op, fmt.Errorf("%w: insert target is not an element", ErrBadTarget)
		}
		at := d.End(target) + 1
		if pos == PosFirst {
			// First position lands after the attribute run: attributes
			// always precede element and text children in parse order.
			for c := d.FirstChild(target); c >= 0 && c <= d.End(target); c = d.End(c) + 1 {
				if d.Kind(c) != xmltree.Attribute {
					at = c
					break
				}
			}
		}
		return store.SpliceOp{Parent: target, At: at, DelEnd: at, Frag: frag}, nil
	case PosBefore, PosAfter:
		if target == d.Root() {
			return op, fmt.Errorf("%w: cannot insert a sibling of the document root", ErrBadTarget)
		}
		if d.Kind(target) == xmltree.Attribute {
			return op, fmt.Errorf("%w: cannot insert relative to an attribute", ErrBadTarget)
		}
		at := target
		if pos == PosAfter {
			at = d.End(target) + 1
		}
		return store.SpliceOp{Parent: d.Parent(target), At: at, DelEnd: at, Frag: frag}, nil
	}
	return op, fmt.Errorf("%w: unknown position %q", ErrBadRequest, pos)
}

func deleteOp(d *store.Doc, target int32) (store.SpliceOp, error) {
	var op store.SpliceOp
	if target == d.Root() {
		return op, fmt.Errorf("%w: cannot delete the document root", ErrBadTarget)
	}
	if d.Kind(target) == xmltree.Text {
		return op, fmt.Errorf("%w: cannot delete a text node (replace the parent element)", ErrBadTarget)
	}
	p := d.Parent(target)
	at, delEnd := target, d.End(target)+1

	// Coalesce: removing an element between two text siblings must merge
	// them, exactly as re-parsing the serialized document would.
	if d.Kind(target) == xmltree.Element {
		var prev int32 = -1
		for c := d.FirstChild(p); c >= 0 && c <= d.End(p); c = d.End(c) + 1 {
			if c == target {
				break
			}
			prev = c
		}
		next := d.End(target) + 1
		if next > d.End(p) {
			next = -1
		}
		if prev >= 0 && next >= 0 &&
			d.Kind(prev) == xmltree.Text && d.Kind(next) == xmltree.Text {
			at, delEnd = prev, d.End(next)+1
			return store.SpliceOp{Parent: p, At: at, DelEnd: delEnd,
				Frag: store.TextFragment(d.Value(prev) + d.Value(next))}, nil
		}
	}
	return store.SpliceOp{Parent: p, At: at, DelEnd: delEnd}, nil
}

// resolveTarget locates a node by `#ordinal` or by absolute path. Path
// steps select children by tag with an optional 1-based index
// (`person[2]`); a final `@name` step selects an attribute. The leading
// step must name the document root.
func resolveTarget(d *store.Doc, target string) (int32, error) {
	t := strings.TrimSpace(target)
	if t == "" {
		return 0, fmt.Errorf("%w: empty target", ErrBadTarget)
	}
	if strings.HasPrefix(t, "#") {
		n, err := strconv.Atoi(t[1:])
		if err != nil || n < 0 || n >= d.Len() {
			return 0, fmt.Errorf("%w: ordinal %q out of range [0, %d)", ErrBadTarget, t, d.Len())
		}
		return int32(n), nil
	}
	if !strings.HasPrefix(t, "/") {
		return 0, fmt.Errorf("%w: path %q must be absolute or #ordinal", ErrBadTarget, target)
	}
	steps := strings.Split(t[1:], "/")
	cur := d.Root()
	for i, step := range steps {
		if step == "" {
			return 0, fmt.Errorf("%w: empty step in %q", ErrBadTarget, target)
		}
		name, k, err := parseStep(step)
		if err != nil {
			return 0, err
		}
		if strings.HasPrefix(name, "@") {
			if i != len(steps)-1 {
				return 0, fmt.Errorf("%w: attribute step %q must be last", ErrBadTarget, step)
			}
			a, ok := childByTag(d, cur, name, 1)
			if !ok {
				return 0, fmt.Errorf("%w: no attribute %q on %q", ErrBadTarget, name, d.Tag(cur))
			}
			return a, nil
		}
		if i == 0 {
			// The first step names the root element itself.
			if d.Tag(cur) != name || k != 1 {
				return 0, fmt.Errorf("%w: document root is %q, path starts at %q", ErrBadTarget, d.Tag(cur), step)
			}
			continue
		}
		c, ok := childByTag(d, cur, name, k)
		if !ok {
			return 0, fmt.Errorf("%w: no child %q under step %d of %q", ErrBadTarget, step, i, target)
		}
		cur = c
	}
	return cur, nil
}

// parseStep splits `name[k]` into its tag and 1-based index (default 1).
func parseStep(step string) (string, int, error) {
	name, k := step, 1
	if i := strings.IndexByte(step, '['); i >= 0 {
		if !strings.HasSuffix(step, "]") {
			return "", 0, fmt.Errorf("%w: malformed step %q", ErrBadTarget, step)
		}
		n, err := strconv.Atoi(step[i+1 : len(step)-1])
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("%w: bad index in step %q", ErrBadTarget, step)
		}
		name, k = step[:i], n
	}
	if name == "" {
		return "", 0, fmt.Errorf("%w: empty name in step %q", ErrBadTarget, step)
	}
	return name, k, nil
}

// childByTag returns the k-th (1-based) direct child of p with the given
// tag.
func childByTag(d *store.Doc, p int32, tag string, k int) (int32, bool) {
	for c := d.FirstChild(p); c >= 0 && c <= d.End(p); c = d.End(c) + 1 {
		if d.Tag(c) == tag {
			k--
			if k == 0 {
				return c, true
			}
		}
	}
	return 0, false
}
