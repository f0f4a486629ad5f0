package tlc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// parityFactor keeps the XMark document small enough that the full
// workload × engines sweep stays fast under -race, while still producing
// multi-tree sequences.
const parityFactor = 0.02

func openXMark(t *testing.T) *Database {
	t.Helper()
	db := Open()
	if err := db.LoadXMark("auction.xml", parityFactor); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestParallelismParity asserts that evaluation is deterministic and that
// requests running in parallel do not disturb one another: for every
// workload query on every algebra engine, a second run reproduces the
// first one's bytes and store counters exactly, and two runs of one
// Prepared on two goroutines at once each return those bytes, including
// document order.
func TestParallelismParity(t *testing.T) {
	db := openXMark(t)
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				p, err := db.Compile(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				db.ResetStats()
				first, err := db.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				firstStats := db.Stats()
				want := first.XML()

				db.ResetStats()
				again, err := db.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := db.Stats(); got != firstStats {
					t.Errorf("store counters not reproducible:\n  first:  %v\n  second: %v", firstStats, got)
				}
				if again.XML() != want {
					t.Error("second run differs from the first")
				}

				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := db.Run(p)
						if err != nil {
							t.Errorf("concurrent run: %v", err)
							return
						}
						if got := res.XML(); got != want {
							t.Errorf("concurrent run differs from a lone run\nwant: %.200s\ngot:  %.200s", want, got)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// answerDigests is the SHA-256 of Result.XML() for every Figure 15 query at
// parityFactor, recorded while the cost-based planner still reordered
// pattern edges and chose value-join algorithms. The four algebra engines
// answer every query with the same bytes, so one digest serves all four
// (x4 and x12 answer nothing at this factor: theirs is the empty string's).
var answerDigests = map[string]string{
	"x1":  "db77c5aaa7424a3dff0c92c4e338ec60668c35df83c17aebc496d94a78642442",
	"x2":  "b941910175a96cf41c263f237bb2c95a52db9db05e80edc90cd9586d4052d75d",
	"x3":  "11a3aa28ff5e5c7bcf1208f1f07c9ec935e692aaac11a66778525d42d5bfee64",
	"x4":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"x5":  "077de5763d135a9d0155e81062e0e63bcf73b54d792a6be931f0ff96bec6e7f2",
	"x6":  "42fe88d3425d9c2ebdddaf5eece0d176cde0301817528039e7082ea5f38b94d8",
	"x7":  "d163a7bab182ca55194ab1eafd9b25028db48ef9b778f8e83dc4d69823840a4a",
	"x8":  "5ac0a5de24cae09f2ff97b0d5dd3bbfc286de21304647c273efe1a9747d08611",
	"x9":  "958a407f57e986289a86e4746e8eda3716827b1f7920d1fef75e480860b76f60",
	"x10": "a31ac2f7c376d70accff32a3ea2582f5cf0653b814ff3f5dbe62c9a56fb73a45",
	"x11": "cdbc7419fbbd8e2c3a83679ec16ee95dcd18c199ca19d9cf831b6a93be3d28db",
	"x12": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"x13": "6678cde8d3c91232eca3b2d85441bed743496889a45d3f269d53e1bb06156f4a",
	"x14": "34a0c0f3312f4be80e60e93990cc781fd5cfac526e6c0c41edef9a59b04242b7",
	"x15": "f90e3daae7c4f5139df112e984b8cf1d20781fa2fb59e7643987528e1aa19bf9",
	"x16": "2bbc1d2c490c8993d138dc217d0f231e7632b10147ec366c7b3703f9ce3dd2f3",
	"x17": "60831259f32a2e1ff9ce15b01a7644991e58159ee10888d7b0cf30d1a2806902",
	"x18": "e47ce61c11a087d323e4070d9397545777d1ff783be5588dd103e7d1a220f65b",
	"x19": "cca7fe5e7315cf0a5004cbb22814c88cbf814ec320d1bf4598412f9b7da79886",
	"x20": "a281291070fbe2497d1289b87d2414d3cf56cc356804e71cb6ace43e1646e228",
	"Q1":  "7741a69d1b9029dd8d5523b6ee3409771fd94c72c98375e182264f127fbf205a",
	"Q2":  "e37fc7066a7355f5f76bdbd880f0d0c75c3baa4687fd83bc51b21d382836237c",
	"10a": "ced3bbffacd6019c10b04a2962ad8cd81a776e0f47024061f09eb9ce2bebbad6",
}

// TestAnswerDigests pins the answer bytes, document order included, of
// every workload query on every algebra engine to answerDigests.
func TestAnswerDigests(t *testing.T) {
	db := openXMark(t)
	for _, q := range Workload() {
		for _, e := range []Engine{TLC, TLCOpt, GTP, TAX} {
			t.Run(fmt.Sprintf("%s/%s", q.ID, e), func(t *testing.T) {
				res, err := db.Query(q.Text, WithEngine(e))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(res.XML()))
				if got, want := hex.EncodeToString(sum[:]), answerDigests[q.ID]; got != want {
					t.Errorf("answer digest %s, recorded %s", got, want)
				}
			})
		}
	}
}

// TestConcurrentRuns is the regression test for the atomic store counters:
// many goroutines issue Run calls against one Database — mixed engines,
// statistics enabled — and every result must match the result of a lone
// run. Run it under -race to check the synchronization, not just the
// outcomes.
func TestConcurrentRuns(t *testing.T) {
	db := openXMark(t)
	queries := []string{
		`FOR $p IN document("auction.xml")//person WHERE $p/age > 25 RETURN $p/name`,
		`FOR $o IN document("auction.xml")//open_auction RETURN <bids>{count($o/bidder)}</bids>`,
		`FOR $i IN document("auction.xml")//item RETURN <loc>{$i/location/text()}</loc>`,
	}
	engines := []Engine{TLC, TLCOpt, GTP, TAX, Nav}

	type job struct {
		prep *Prepared
		want string
	}
	var jobs []job
	for qi, q := range queries {
		for _, e := range engines {
			prep, err := db.Compile(q, WithEngine(e))
			if err != nil {
				t.Fatalf("query %d engine %v: %v", qi, e, err)
			}
			res, err := db.Run(prep)
			if err != nil {
				t.Fatalf("query %d engine %v: %v", qi, e, err)
			}
			jobs = append(jobs, job{prep: prep, want: res.XML()})
		}
	}

	db.ResetStats()
	const goroutines = 8
	const repsPerGoroutine = 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repsPerGoroutine; r++ {
				j := jobs[(g+r)%len(jobs)]
				res, err := db.Run(j.prep)
				if err != nil {
					errc <- err
					return
				}
				if got := res.XML(); got != j.want {
					errc <- fmt.Errorf("goroutine %d rep %d: result differs from a lone run", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if db.Stats().TagLookups == 0 {
		t.Error("stats were enabled but no tag lookups were counted")
	}
}

// TestWithParallelismDefaults pins the option's contract: it is ignored,
// so every value agrees with leaving it unset.
func TestWithParallelismDefaults(t *testing.T) {
	db := openSample(t)
	q := `FOR $p IN document("auction.xml")//person RETURN $p/name`
	want := ""
	for i, opts := range [][]Option{
		{},
		{WithParallelism(-1)},
		{WithParallelism(1)},
		{WithParallelism(3)},
	} {
		res, err := db.Query(q, opts...)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if i == 0 {
			want = res.XML()
			continue
		}
		if res.XML() != want {
			t.Errorf("case %d: result differs: %q vs %q", i, res.XML(), want)
		}
	}
}
