package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRankAndTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true}, // exactly 10 samples beyond
		{99, 0.9, 90, false}, // rank 90 leaves 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("percentile(empty) = %v, %v; want NaN, false", v, ok)
	}
}

// The reference values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10, 7, 9, 8}, [3]float64{7.25, 8.5, 9.75}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	med, share := spread(seq(10))
	if med != 5.5 || math.Abs(share-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, %v; want 5.5, 1", med, share)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// A request's children partition it, so their sum leaves no residual;
// a request whose start and decide events the hook missed keeps only
// its submit span, and the rest of its time is the residual.
func TestRequestSpansResidual(t *testing.T) {
	tr := newTracer(2, 1)
	// t0=0 submit until 10, start event at 30, decide at 90, Wait at 100.
	tr.requestSpans(0, 1, 0, 10, 100, 30, 90)
	st := tr.stats(1000)
	if r := residual(st.total[spanRequest], st.childOfRequest); r != 0 {
		t.Fatalf("residual with every event seen = %v, want 0", r)
	}
	if got := st.perRequestMs(spanStartLag) + st.perRequestMs(spanCompute) + st.perRequestMs(spanObserveLag) + st.meanUs(spanSubmit)/1e3; math.Abs(got-st.perRequestMs(spanRequest)) > 1e-12 {
		t.Fatalf("layer rows sum to %v ms, request mean is %v ms", got, st.perRequestMs(spanRequest))
	}

	// A start event stamped before BroadcastAsync returned clamps to a
	// zero lag rather than a negative one.
	tr.requestSpans(0, 2, 200, 210, 300, 205, 290)
	// Hook missed both events: only submit (10 of 100 ns) is covered.
	tr.requestSpans(0, 3, 400, 410, 500, 0, 0)
	st = tr.stats(1000)
	if st.count[spanStartLag] != 2 || st.total[spanStartLag] != 20 {
		t.Fatalf("start lag count/total = %d/%d, want 2/20", st.count[spanStartLag], st.total[spanStartLag])
	}
	if r, want := residual(st.total[spanRequest], st.childOfRequest), 90.0/300; math.Abs(r-want) > 1e-12 {
		t.Fatalf("residual = %v, want %v", r, want)
	}

	// Requests ending after the window are left out of the layer sums.
	st = tr.stats(450)
	if st.count[spanRequest] != 2 {
		t.Fatalf("requests inside the window = %d, want 2", st.count[spanRequest])
	}
}

// Counter deltas are read at the edges of the window and divided by the
// requests completed inside it: traffic before the window (set-up,
// warm-up) never enters, and there are no calibration reruns to divide
// by.
func TestPerReqUsesWindowEdges(t *testing.T) {
	var sends int64 = 5000 // set-up and warm-up traffic
	before := sends
	completed := int64(0)
	for i := 0; i < 40; i++ { // 40 requests of 25 sends each
		sends += 25
		completed++
	}
	after := sends
	sends += 1000 // traffic after the window closed
	if got := perReq(before, after, completed); got != 25 {
		t.Fatalf("perReq = %v, want 25", got)
	}
	if got := perReq(before, after, 0); got != 0 {
		t.Fatalf("perReq with no completions = %v, want 0", got)
	}
}

func TestSummarizeSlicesOrPools(t *testing.T) {
	full := make([]subWindow, subWindows)
	for k := range full {
		full[k] = subWindow{dur: time.Second, cpu: 100 * time.Millisecond, heapMB: float64(k), done: 200, lat: seq(200)}
	}
	full[0].lat = append(seq(199), 1e6) // one wild slice moves no median
	full[0].done = 200
	sm := summarize(full)
	if !sm.perSlice || sm.p50 != 100 || sm.p90 != 180 || sm.perSec != 200 || sm.cpuMsPerReq != 0.5 || !sm.p90ok {
		t.Fatalf("sliced summary = %+v", sm)
	}
	if sm.heapMB != float64(subWindows-1)/2 {
		t.Fatalf("heap median = %v", sm.heapMB)
	}

	sparse := make([]subWindow, subWindows)
	for k := range sparse {
		sparse[k] = subWindow{dur: 2 * time.Second, cpu: time.Second, done: 10, lat: seq(10)}
	}
	sm = summarize(sparse)
	if sm.perSlice || sm.samples != 10*subWindows || sm.perSec != 5 || sm.cpuMsPerReq != 100 {
		t.Fatalf("pooled summary = %+v", sm)
	}
	if sm.p50 != 5 || sm.p90 != 9 || !sm.p90ok {
		t.Fatalf("pooled percentiles = %v, %v (%v)", sm.p50, sm.p90, sm.p90ok)
	}
}

func TestReservoirBoundsMemoryAndStaysUniform(t *testing.T) {
	s := newSlices(1)
	r := &s[0]
	const n = 100 * reservoirSize
	for i := 0; i < n; i++ {
		r.add(float64(i))
	}
	if r.n != n || len(r.vals) != reservoirSize || cap(r.vals) != reservoirSize {
		t.Fatalf("reservoir n=%d len=%d cap=%d", r.n, len(r.vals), cap(r.vals))
	}
	// A uniform sample of 0..n-1 has its median near n/2.
	if m := median(r.vals); math.Abs(m-n/2) > n/10 {
		t.Fatalf("reservoir median %v, want near %v", m, n/2)
	}
}
