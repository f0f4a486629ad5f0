package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// number; Parent is the span that caused this one (0 for a request's
// root). Reexec marks a child that could not be observed inside its
// parent — the layers expose no hooks yet — and was timed as a separate
// call with the same inputs: its interval lies outside the parent's, and
// it is charged to the parent by duration.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Reexec  bool   `json:"reexec,omitempty"`
	outer   int    // the span that was innermost when this one opened
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	request int
	cur     int // innermost open span: the parent of spans recorded inside callbacks
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span under parent and makes it the innermost one; close
// ends it. A nil tracer records nothing, which is how the untraced replay
// runs.
func (t *tracer) open(name string, parent int, reexec bool) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Name: name, Reexec: reexec,
		StartNS: time.Since(t.t0).Nanoseconds(), outer: t.cur})
	t.cur = id
	return id
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	t.cur = t.spans[id-1].outer
}

// current returns the innermost open span.
func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	return t.cur
}

// call times fn as a span and returns its id and duration.
func (t *tracer) call(name string, parent int, reexec bool, fn func()) (int, time.Duration) {
	id := t.open(name, parent, reexec)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.close(id)
	return id, d
}

// selfTimes returns each span's duration minus its children's: nested
// children by the part of the parent's interval they cover, re-executed
// children by their whole duration. Never negative: a re-execution can
// run slower than the work it stands for.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
		byID[s.ID] = s
	}
	for _, c := range spans {
		p, ok := byID[c.Parent]
		if !ok {
			continue
		}
		covered := c.dur()
		if !c.Reexec {
			lo, hi := max(c.StartNS, p.StartNS), min(c.EndNS, p.EndNS)
			covered = time.Duration(max(hi-lo, 0))
		}
		self[p.ID] -= covered
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// sumByName totals durations per span name.
func sumByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// selfByName totals self times per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerShares groups summed span time into the three layer groups the
// workloads are designed around, as shares of handler time.
type layerShares struct {
	compile float64 // xquery + translate + planner + plancache
	eval    float64 // physical + algebra + seq
	write   float64 // mutate + store + wal
}

// shareRule is what a workload's traced run is expected to show; zero
// fields are not checked.
type shareRule struct {
	compileMin, compileMax, evalMin, writeMin float64
}

var shareRules = map[string]shareRule{
	"read_hot":      {compileMax: 0.05, evalMin: 0.80},
	"read_coldplan": {compileMin: 0.40},
	"write_only":    {writeMin: 0.70},
}

// checkShares returns a line per expectation the shares miss.
func checkShares(workload string, s layerShares) []string {
	r, ok := shareRules[workload]
	if !ok {
		return nil
	}
	var out []string
	add := func(ok bool, msg string) {
		if !ok {
			out = append(out, workload+": "+msg)
		}
	}
	if r.compileMin > 0 {
		add(s.compile >= r.compileMin, "compile layers below their minimum share")
	}
	if r.compileMax > 0 {
		add(s.compile <= r.compileMax, "compile layers above their maximum share")
	}
	if r.evalMin > 0 {
		add(s.eval >= r.evalMin, "physical+algebra+seq below their minimum share")
	}
	if r.writeMin > 0 {
		add(s.write >= r.writeMin, "mutate+store+wal below their minimum share")
	}
	return out
}
