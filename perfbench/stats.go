package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before that percentile is reported as measured: a p90 needs at least
// 100 samples, a p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted,
// and whether at least minBeyond samples lie strictly beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// quartiles returns the three cut points dividing values into quarters,
// computed as Python's statistics.quantiles(values, n=4) does (its
// default "exclusive" method), so spreads read the same here and there.
// It needs at least two values.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

// spread is the distance between the first and third quartiles as a
// share of the median: the run-to-run noise measure the bounds in
// BENCHMARK.json are set against.
func spread(values []float64) (median, iqrShare float64) {
	q := quartiles(values)
	if q[1] == 0 {
		return 0, math.Inf(1)
	}
	return q[1], (q[2] - q[0]) / math.Abs(q[1])
}

// perReq normalises a counter delta read at the two edges of the
// measured window by the requests completed inside that same window.
// Counts from set-up, warm-up or any earlier run are excluded by
// construction: only the delta between the edges enters.
func perReq(before, after, completed int64) float64 {
	if completed <= 0 {
		return 0
	}
	return float64(after-before) / float64(completed)
}

// ratio is num/den, or 0 when den is 0 (a layer that moved nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// residual is the share of the parent spans' total time that their
// direct child spans do not cover: 1 - sum(children)/sum(parents).
func residual(parentNs, childNs int64) float64 {
	if parentNs <= 0 {
		return 0
	}
	return 1 - float64(childNs)/float64(parentNs)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// subWindows is how many equal slices the measured window is cut into.
const subWindows = 20

// minSubDone is how many completed requests every slice needs before a
// run reports the median over slices instead of pooling the window:
// enough for a p90 with minBeyond samples beyond it, and for a rate
// quantised finer than 1%. Medians over slices keep a burst of host
// noise in one slice out of the figures; workloads too slow to fill the
// slices (the paced socket requests) pool the whole window instead.
const minSubDone = 100

// subWindow is one slice of the measured window.
type subWindow struct {
	dur    time.Duration
	cpu    time.Duration
	heapMB float64   // live heap at the slice's end
	done   int64     // requests completed inside the slice
	lat    []float64 // ms, latencies of sampled requests completed inside it
}

// summary is a window's end-to-end request figures.
type summary struct {
	p50, p90, perSec, cpuMsPerReq float64
	heapMB                        float64 // median over the slices
	samples                       int
	perSlice                      bool
	p90ok                         bool // minBeyond samples beyond the p90
}

// summarize reports the window's latency percentiles, completion rate
// and CPU per request: medians over the slices when every slice is full
// enough (see minSubDone), else pooled over the whole window. CPU per
// request is the median CPU rate of the slices over the request rate,
// so a burst of host noise in one slice moves neither.
func summarize(subs []subWindow) summary {
	var sm summary
	sm.perSlice = len(subs) > 1
	all := pooled(subs)
	var heap, cpuRates []float64
	var dur time.Duration
	var done int64
	for _, s := range subs {
		if s.done < minSubDone || len(s.lat) < minSubDone {
			sm.perSlice = false
		}
		heap = append(heap, s.heapMB)
		cpuRates = append(cpuRates, ratio(float64(s.cpu), float64(s.dur)))
		dur += s.dur
		done += s.done
	}
	sm.samples = len(all)
	sm.heapMB = median(heap)
	if sm.perSlice {
		var p50s, p90s, rates []float64
		for _, s := range subs {
			sorted := sortedCopy(s.lat)
			p50, _ := percentile(sorted, 0.5)
			p90, _ := percentile(sorted, 0.9)
			p50s, p90s = append(p50s, p50), append(p90s, p90)
			rates = append(rates, float64(s.done)/s.dur.Seconds())
		}
		sm.p50, sm.p90, sm.perSec, sm.p90ok = median(p50s), median(p90s), median(rates), true
	} else {
		sorted := sortedCopy(all)
		sm.p50, _ = percentile(sorted, 0.5)
		sm.p90, sm.p90ok = percentile(sorted, 0.9)
		sm.perSec = ratio(float64(done), dur.Seconds())
	}
	sm.cpuMsPerReq = ratio(median(cpuRates)*1e3, sm.perSec)
	return sm
}

// pooled gathers every slice's latencies.
func pooled(subs []subWindow) []float64 {
	var all []float64
	for _, s := range subs {
		all = append(all, s.lat...)
	}
	return all
}

// median of xs: the mean of the two middle values for an even count
// (NaN when empty).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// walkWindow sleeps through the window from start, calling edge at the
// end of each slice k = 0..subWindows-1 with the slice's length as the
// clock measured it.
func walkWindow(start time.Time, window time.Duration, edge func(k int, dur time.Duration)) {
	prev := start
	for k := 0; k < subWindows; k++ {
		time.Sleep(time.Until(start.Add(window * time.Duration(k+1) / subWindows)))
		now := time.Now()
		edge(k, now.Sub(prev))
		prev = now
	}
}

// reservoirSize bounds the latencies kept per slice by each recorder, so
// the benchmark's own sample memory is allocated before the window opens
// and is the same on every run and workload.
const reservoirSize = 1024

// reservoir keeps a uniform random sample of at most reservoirSize of
// the values added to it (Algorithm R), and counts them all.
type reservoir struct {
	vals []float64
	n    int64
	rng  uint64
}

// slices holds one reservoir per window slice.
type slices [subWindows]reservoir

func newSlices(seed uint64) *slices {
	var s slices
	for k := range s {
		s[k] = reservoir{vals: make([]float64, 0, reservoirSize), rng: mix(seed, uint64(k)) | 1}
	}
	return &s
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(r.n); j < uint64(len(r.vals)) {
		r.vals[j] = v
	}
}
