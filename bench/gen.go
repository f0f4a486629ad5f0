package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tlc"
	"tlc/internal/xmark"
)

// docName is the one document every workload serves.
const docName = "auction.xml"

// docSeed seeds the XMark generator, for every --seed alike. At benchmark
// sizes one generated document differs from the next by far more than any
// regression bound — about 45 ± 6 auctions have the "more than five
// bidders" that Q1, Q2 and x5 join on, and read_hot's p95 moved 20.7 to
// 30.0 ms over four document seeds against ± 1 % for one document — so the
// document is held fixed and --seed drives everything issued against it:
// order, literals, update script and schedule.
const docSeed = 42

// Kind discriminates the two request types the driver issues.
type Kind uint8

const (
	KindQuery Kind = iota
	KindUpdate
)

// Update is one subtree update against docName, in /update wire terms.
type Update struct {
	Op       string `json:"op"`
	Target   string `json:"target"`
	Position string `json:"position,omitempty"`
	Fragment string `json:"fragment,omitempty"`
	// slot identifies the element the update edits (see updateGen); the
	// acknowledged-state model keys on it.
	slot int
}

// Request is one generated request. Everything in it derives from the
// seed; the server sees only Query or Update.
type Request struct {
	Kind   Kind
	Tmpl   string // template id: x1…10a, "<id>v" for a literal variant, cNNN for a cold template
	Query  string
	Update Update
	// Due is the open-loop send time as an offset from the start of the
	// timed phase (zero in closed-loop streams).
	Due time.Duration
}

// subSeed derives an independent generator per purpose, so lengthening
// one stream never shifts another.
func subSeed(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// genDocument renders the XMark document of a scale factor as XML text.
func genDocument(factor float64) []byte {
	doc := xmark.GenerateSized(docName, xmark.SizesFor(factor), docSeed)
	var buf bytes.Buffer
	buf.Grow(doc.Len() * 16)
	if err := doc.WriteXML(&buf, doc.Root()); err != nil {
		panic(err) // a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// streamHash fingerprints a request stream: kind, text and schedule.
func streamHash(reqs []Request) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range reqs {
		h.Write([]byte{byte(r.Kind), 0})
		for _, s := range []string{r.Tmpl, r.Query, r.Update.Op, r.Update.Target, r.Update.Position, r.Update.Fragment} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		binary.LittleEndian.PutUint64(b[:], uint64(r.Due))
		h.Write(b[:])
	}
	return h.Sum64()
}

// ---- read_hot: the 23 Figure 15 queries plus stronger-literal variants ----

// hotVariant rewrites one liftable comparison of a Figure 15 query to a
// stronger literal: the plan cache then misses exactly, finds the base
// plan by structure, and serves the request with a residual filter.
type hotVariant struct {
	id, old, format string
	lo, span        int
}

// The literal ranges are narrow on purpose: a variant's answer shrinks as
// its literal grows (Q2 with age > 55 returns a third of what age > 26
// does and takes half the time), so wide ranges make one seed's stream
// cheaper than the next one's by more than a regression bound.
var hotVariants = []hotVariant{
	{"x3", `$p/age > 50`, `$p/age > %d`, 51, 4},
	{"x11", `@income > 90000`, `@income > %d`, 90500, 1000},
	{"x12", `@income > 98000`, `@income > %d`, 98100, 400},
	{"x17", `$p/age > 20`, `$p/age > %d`, 21, 4},
	{"Q1", `$p/age > 25`, `$p/age > %d`, 26, 4},
	{"Q2", `$p/age > 25`, `$p/age > %d`, 26, 4},
}

const (
	variantLiterals = 4 // literals drawn per liftable query (bounds the oracle's work)
	variantsPerPass = 8 // with 23 base queries: 8/31, one request in four
)

// oneLine folds a query onto one line: the service accepts either, and
// logs and trace files stay legible.
func oneLine(q string) string { return strings.Join(strings.Fields(q), " ") }

// hotStream returns passes × (23 base + 8 variant) requests, each pass
// separately shuffled. Every pass holds each base query once, one variant
// of each liftable query, and two more variants that rotate over the six
// — so every seed issues the same mix of work and seeds differ only in
// order and literals.
func hotStream(seed int64, passes int) []Request {
	rng := subSeed(seed, "read_hot")
	var base []Request
	texts := map[string]string{}
	for _, q := range xmark.Queries() {
		t := oneLine(q.Text)
		texts[q.ID] = t
		base = append(base, Request{Kind: KindQuery, Tmpl: q.ID, Query: t})
	}
	variants := make([][]Request, len(hotVariants))
	for i, v := range hotVariants {
		for len(variants[i]) < variantLiterals {
			lit := fmt.Sprintf(v.format, v.lo+rng.Intn(v.span))
			text := strings.Replace(texts[v.id], v.old, lit, 1)
			if text == texts[v.id] {
				panic("bench: variant site not found in " + v.id)
			}
			variants[i] = append(variants[i], Request{Kind: KindQuery, Tmpl: v.id + "v", Query: text})
		}
	}
	out := make([]Request, 0, passes*(len(base)+variantsPerPass))
	for p := 0; p < passes; p++ {
		pass := append([]Request(nil), base...)
		for i := 0; i < variantsPerPass; i++ {
			which := i // one of each, then the two extras move on by two per pass
			if i >= len(variants) {
				which = i + 2*p
			}
			of := variants[which%len(variants)]
			pass = append(pass, of[rng.Intn(len(of))])
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		out = append(out, pass...)
	}
	return out
}

// ---- read_coldplan: structurally distinct point-lookup templates ----

// coldTemplates is how many distinct templates read_coldplan cycles
// through: four times the server's 128-entry plan cache, so a cyclic
// order defeats the LRU completely.
const coldTemplates = 512

type coldEntity struct {
	paths []string // FOR paths after document(...)
	keys  []string // equality predicate formats over $v, one %d
	pop   func(xmark.Sizes) int
	text  []string // child paths with text content
	num   []string // numeric child paths
	multi []string // repeating child paths, for count()
}

var coldEntities = []coldEntity{
	{
		paths: []string{"//person", "/people/person"},
		keys:  []string{`$v/@id = "person%d"`},
		pop:   func(s xmark.Sizes) int { return s.Persons },
		text:  []string{"name", "emailaddress", "phone", "address/city", "address/country", "homepage", "profile/education"},
		num:   []string{"age", "profile/@income"},
		multi: []string{"profile/interest", "watches/watch"},
	},
	{
		paths: []string{"//open_auction", "/open_auctions/open_auction"},
		keys:  []string{`$v/@id = "open_auction%d"`},
		pop:   func(s xmark.Sizes) int { return s.OpenAuctions },
		text:  []string{"type", "interval/start", "interval/end", "annotation/description/text"},
		num:   []string{"initial", "reserve", "current", "quantity"},
		multi: []string{"bidder", "bidder/increase"},
	},
	{
		paths: []string{"//item", "/regions/africa/item", "/regions/asia/item", "/regions/europe/item", "/regions/namerica/item"},
		keys:  []string{`$v/@id = "item%d"`},
		pop:   func(s xmark.Sizes) int { return s.Items },
		text:  []string{"location", "name", "payment", "description/text"},
		num:   []string{"quantity"},
		multi: []string{"incategory", "mailbox/mail"},
	},
	{
		paths: []string{"//closed_auction", "/closed_auctions/closed_auction"},
		keys:  []string{`$v/buyer/@person = "person%d"`, `$v/seller/@person = "person%d"`},
		pop:   func(s xmark.Sizes) int { return s.Persons },
		text:  []string{"date", "type", "annotation/description/text"},
		num:   []string{"price", "quantity"},
		multi: []string{"annotation/author"},
	},
}

var coldWrappers = []string{"out", "row", "hit", "rec", "ans", "res", "entry", "found"}

// coldTemplate draws one FLWOR query: FOR path, key-equality predicate,
// WHERE shape (plain, conjunct, OR group, NOT, OR-with-NOT), one to four
// RETURN arguments and, one time in four, a nested FLWOR bound by LET.
func coldTemplate(rng *rand.Rand, sz xmark.Sizes) string {
	ent := &coldEntities[rng.Intn(len(coldEntities))]
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	key := func(e *coldEntity, v string) string {
		return strings.ReplaceAll(fmt.Sprintf(pick(e.keys), rng.Intn(e.pop(sz))), "$v", v)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `FOR $v IN document(%q)%s `, docName, pick(ent.paths))
	nested := rng.Intn(2) == 0
	if nested {
		// A nested block over a second entity with its own key lookup: the
		// request stays cheap to evaluate while parse, translate and plan
		// all see a deeper query.
		sub := &coldEntities[rng.Intn(len(coldEntities))]
		fmt.Fprintf(&sb, `LET $a := FOR $t IN document(%q)%s WHERE %s RETURN <sub>{$t/%s/text()}</sub> `,
			docName, pick(sub.paths), key(sub, "$t"), pick(sub.text))
	}
	sb.WriteString("WHERE " + key(ent, "$v"))
	switch 1 + rng.Intn(4) {
	case 1:
		fmt.Fprintf(&sb, ` AND $v/%s > %d`, pick(ent.num), rng.Intn(50))
	case 2:
		fmt.Fprintf(&sb, ` AND ($v/%s or $v/%s > %d)`, pick(ent.text), pick(ent.num), rng.Intn(50))
	case 3:
		fmt.Fprintf(&sb, ` AND not($v/%s)`, pick(ent.multi))
	case 4:
		fmt.Fprintf(&sb, ` AND ($v/%s or not($v/%s) or $v/%s > %d)`, pick(ent.text), pick(ent.text), pick(ent.num), rng.Intn(50))
	}
	wrap := pick(coldWrappers)
	fmt.Fprintf(&sb, ` RETURN <%s>`, wrap)
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, `<t%d>{$v/%s/text()}</t%d>`, i, pick(ent.text), i)
		case 1:
			fmt.Fprintf(&sb, `<n%d>{$v/%s/text()}</n%d>`, i, pick(ent.num), i)
		default:
			fmt.Fprintf(&sb, `<c%d>{count($v/%s)}</c%d>`, i, pick(ent.multi), i)
		}
	}
	if nested {
		sb.WriteString(`{$a}`)
	}
	fmt.Fprintf(&sb, `</%s>`, wrap)
	return sb.String()
}

// coldStream returns coldTemplates requests with pairwise distinct
// structural signatures (the plan cache's containment key), each with a
// seeded key literal. Issued cyclically, both the LRU and the containment
// probe miss on every request.
func coldStream(seed int64, factor float64) []Request {
	rng := subSeed(seed, "read_coldplan")
	sz := xmark.SizesFor(factor)
	seen := map[string]bool{}
	out := make([]Request, 0, coldTemplates)
	for len(out) < coldTemplates {
		text := coldTemplate(rng, sz)
		canon, err := tlc.Canonicalize(text)
		if err != nil {
			panic(fmt.Sprintf("bench: generated template does not parse: %v\n%s", err, text))
		}
		if seen[canon.Struct] {
			continue
		}
		seen[canon.Struct] = true
		out = append(out, Request{Kind: KindQuery, Tmpl: fmt.Sprintf("c%03d", len(out)), Query: text})
	}
	return out
}

// ---- updates: seeded subtree insert / delete / replace ----

// An update edits one "slot": the i-th person or open auction, addressed
// by position. Slots are never added or removed, so positional targets
// stay valid whatever order concurrent updates commit in, and every edit
// is a <bnote> child that no benchmark query reads — query answers stay
// comparable with the oracle while the document churns.
const (
	liveMin   = 8  // below this many live fragments the script only inserts
	liveMax   = 64 // above this it only deletes: document size is stationary
	slotQuiet = 4  // updates between two edits of one slot, so in-flight edits never share a slot
	fragMax   = 24 // <bline> children per fragment: 2 + 2×24 = 50 nodes at most
)

type updateGen struct {
	rng      *rand.Rand
	factor   float64
	slots    int         // persons + open auctions
	live     []int       // slots holding a fragment, oldest first
	lastEdit map[int]int // slot -> index of the update that last touched it
	n        int
}

func newUpdateGen(seed int64, purpose string, factor float64) *updateGen {
	sz := xmark.SizesFor(factor)
	return &updateGen{
		rng: subSeed(seed, purpose), factor: factor, slots: sz.Persons + sz.OpenAuctions,
		lastEdit: map[int]int{},
	}
}

// slotTarget renders a slot's positional path in the document of factor:
// slots below the person count are people, the rest open auctions.
func slotTarget(factor float64, slot int) string {
	persons := xmark.SizesFor(factor).Persons
	if slot < persons {
		return fmt.Sprintf("/site/people/person[%d]", slot+1)
	}
	return fmt.Sprintf("/site/open_auctions/open_auction[%d]", slot-persons+1)
}

func (g *updateGen) fragment() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<bnote id="b%d">`, g.n)
	for i, k := 0, g.rng.Intn(fragMax+1); i < k; i++ {
		fmt.Fprintf(&sb, `<bline>note %d line %d</bline>`, g.rng.Intn(1000), i)
	}
	sb.WriteString(`</bnote>`)
	return sb.String()
}

func (g *updateGen) quiet(slot int) bool {
	last, ok := g.lastEdit[slot]
	return !ok || g.n-last > slotQuiet
}

// next returns the following update of the script.
func (g *updateGen) next() Update {
	defer func() { g.n++ }()
	// The oldest live slot is always quiet once liveMin > slotQuiet.
	editable := len(g.live) > 0 && g.quiet(g.live[0])
	roll := g.rng.Intn(10)
	switch {
	case len(g.live) < liveMin || !editable:
		roll = 0
	case len(g.live) > liveMax:
		roll = 9
	}
	switch {
	case roll < 4: // insert
		var slot int
		for {
			slot = g.rng.Intn(g.slots)
			if g.quiet(slot) && !g.isLive(slot) {
				break
			}
		}
		g.live = append(g.live, slot)
		g.lastEdit[slot] = g.n
		return Update{Op: "insert", Target: slotTarget(g.factor, slot), Position: "into", Fragment: g.fragment(), slot: slot}
	case roll < 6: // replace the oldest fragment, which then counts as newest
		slot := g.live[0]
		g.live = append(g.live[1:], slot)
		g.lastEdit[slot] = g.n
		return Update{Op: "replace", Target: slotTarget(g.factor, slot) + "/bnote[1]", Fragment: g.fragment(), slot: slot}
	default: // delete the oldest fragment
		slot := g.live[0]
		g.live = g.live[1:]
		g.lastEdit[slot] = g.n
		return Update{Op: "delete", Target: slotTarget(g.factor, slot) + "/bnote[1]", slot: slot}
	}
}

func (g *updateGen) isLive(slot int) bool {
	for _, s := range g.live {
		if s == slot {
			return true
		}
	}
	return false
}

// updateScript returns the first n updates for a purpose.
func updateScript(seed int64, purpose string, factor float64, n int) []Request {
	g := newUpdateGen(seed, purpose, factor)
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Kind: KindUpdate, Tmpl: "upd", Update: g.next()}
	}
	return out
}

// slotState is the acknowledged-state model: which fragment each slot
// holds after a set of acknowledged updates. Edits of different slots
// commute and edits of one slot are never in flight together (slotQuiet),
// so the model does not depend on commit order.
type slotState map[int]string

func (s slotState) apply(u Update) {
	if u.Op == "delete" {
		delete(s, u.slot)
	} else {
		s[u.slot] = u.Fragment
	}
}

// ---- mixed_95_5: open-loop schedule ----

// mixedStream interleaves the read_hot stream with updates drawn from
// upd: rate × dur arrivals at seeded uniform times (a Poisson process
// given its count), exactly one arrival in every 1/updateShare an update,
// at a seeded place in its block — so two seeds offer the same load and
// differ only in when and what.
func mixedStream(seed int64, upd *updateGen, rate float64, dur time.Duration, updateShare float64) []Request {
	rng := subSeed(seed, "mixed_95_5/schedule")
	block := int(1/updateShare + 0.5)
	n := int(rate * dur.Seconds())
	reads := hotStream(seed, n/(len(xmark.Queries())+variantsPerPass)+1)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	out := make([]Request, 0, n)
	updateAt := 0
	for k, at := range due {
		if k%block == 0 {
			updateAt = k + rng.Intn(block)
		}
		var r Request
		if k == updateAt {
			r = Request{Kind: KindUpdate, Tmpl: "upd", Update: upd.next()}
		} else {
			r, reads = reads[0], reads[1:]
		}
		r.Due = at
		out = append(out, r)
	}
	return out
}
