package main

import (
	"bytes"
	"fmt"
	"sort"

	"tlc"
)

// oracle computes reference answers in-process, configured as plainly as
// the engine allows — one shard, serial evaluation, planner off — so it
// shares as few decisions as possible with the server it checks.
type oracle struct {
	db      *tlc.Database
	answers map[string]answer
}

func newOracle(xml []byte) (*oracle, error) {
	db := tlc.Open(tlc.WithShards(1))
	if err := db.LoadXML(docName, bytes.NewReader(xml)); err != nil {
		return nil, fmt.Errorf("oracle: load: %w", err)
	}
	return &oracle{db: db, answers: map[string]answer{}}, nil
}

func (o *oracle) run(text string) (answer, error) {
	res, err := o.db.Query(text, tlc.WithPlanner(false), tlc.WithParallelism(1))
	if err != nil {
		return answer{}, fmt.Errorf("oracle: %w\n%s", err, text)
	}
	trees := make([]string, res.Len())
	for i := range trees {
		trees[i] = res.TreeXML(i)
	}
	return answer{len(trees), hashResults(trees)}, nil
}

// learn records the reference answer of every distinct query in reqs.
func (o *oracle) learn(reqs []Request) error {
	for _, r := range reqs {
		if r.Kind != KindQuery {
			continue
		}
		if _, ok := o.answers[r.Query]; ok {
			continue
		}
		a, err := o.run(r.Query)
		if err != nil {
			return err
		}
		o.answers[r.Query] = a
	}
	return nil
}

// sectionQueries dump the whole document, one top-level section per
// query (the root element itself is not addressable by a pattern).
var sectionQueries = func() []string {
	var out []string
	for _, s := range []string{"regions", "categories", "people", "open_auctions", "closed_auctions"} {
		out = append(out, fmt.Sprintf(`FOR $s IN document(%q)/%s RETURN $s`, docName, s))
	}
	return out
}()

// documentAnswers returns the answers of the section queries once the
// fragments of state are in place. The oracle applies only the net
// effect — one insert per slot that ends up holding a fragment — rather
// than every acknowledged update: each update re-splices the whole
// document, so a full replay would cost the driver as much CPU as the
// server spent on the workload. TestNetReplayEqualsFullReplay shows the
// two agree.
func (o *oracle) documentAnswers(state slotState, factor float64) ([]answer, error) {
	slots := make([]int, 0, len(state))
	for s := range state {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		_, err := o.db.Update(tlc.UpdateRequest{
			Doc: docName, Op: tlc.UpdateInsert, Target: slotTarget(factor, s),
			Position: tlc.UpdateInto, Fragment: state[s],
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: replay slot %d: %w", s, err)
		}
	}
	out := make([]answer, len(sectionQueries))
	for i, q := range sectionQueries {
		a, err := o.run(q)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}
