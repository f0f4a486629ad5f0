package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is one or two outliers, not a
// property of the system.
const minBeyond = 10

// percentileLadder lists the percentiles the driver may report, lowest
// first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile returns the highest ladder percentile with at
// least minBeyond of n samples beyond it, or 0 when even the median has
// too few.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 { // 100-99.9 is not exact
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver uses for spreads.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// backlogGrowing reports whether an open-loop generator fell steadily
// further behind over a step: lateness holds each request's send delay
// past its due time, in schedule order. A queue that keeps up shows
// lateness that fluctuates around a level; an overloaded one shows
// lateness that climbs for the whole step, so the last third's median
// sits well above the first third's. The threshold is a twentieth of the
// step — far above jitter, far below what real overload accumulates.
func backlogGrowing(lateness []time.Duration, step time.Duration) bool {
	n := len(lateness)
	if n < 6 {
		return false
	}
	first := median(durationsMS(lateness[:n/3]))
	last := median(durationsMS(lateness[n-n/3:]))
	return last-first > ms(step)/20
}

// rateResult is what an open-loop phase at one offered rate showed.
type rateResult struct {
	readP95MS float64
	failed    int
	growing   bool
}

// ok reports whether the offered rate was sustained: read p95 within the
// limit, no failed operation (a failure misses any limit) and no growing
// backlog.
func (r rateResult) ok(limitMS float64) bool {
	return r.failed == 0 && !r.growing && r.readP95MS <= limitMS
}
