package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// Span names. Each request's spans share its request id; the parent of
// a span is named, since a name occurs at most once per request.
const (
	spanCycle      = "cycle"              // one closed-loop iteration of a client
	spanCorrupt    = "config.corrupt"     // CorruptEverything
	spanArm        = "spec.arm"           // ArmSpec
	spanRequest    = "request"            // BroadcastAsync called .. Wait returned
	spanSubmit     = "facade.submit"      // inside BroadcastAsync
	spanStartLag   = "facade.start_lag"   // BroadcastAsync returned .. initiator's start event
	spanCompute    = "pif.compute"        // start event .. decide event
	spanObserveLag = "facade.observe_lag" // decide event .. Wait returned
	spanFeedbacks  = "facade.feedbacks"   // inside Feedbacks
	spanReport     = "spec.report"        // inside SpecReport
)

// parentOf fixes the span tree: request's children partition it, the
// rest hang off the cycle.
var parentOf = map[string]string{
	spanCorrupt:    spanCycle,
	spanArm:        spanCycle,
	spanRequest:    spanCycle,
	spanSubmit:     spanRequest,
	spanStartLag:   spanRequest,
	spanCompute:    spanRequest,
	spanObserveLag: spanRequest,
	spanFeedbacks:  spanCycle,
	spanReport:     spanCycle,
}

// span is one timed interval, in nanoseconds since the tracer's epoch.
type span struct {
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Event kinds counted from the WithEventHook stream.
const (
	evSend = iota
	evSendLost
	evDeliver
	evLose
	evRecvBrd
	evRecvFck
	numEvents
)

var eventIndex = map[string]int{
	"send": evSend, "send-lost": evSendLost, "deliver": evDeliver,
	"lose": evLose, "recv-brd": evRecvBrd, "recv-fck": evRecvFck,
}

// procMarks holds the timestamps the hook takes for the request in
// flight at one initiator. armed is set by the client before it
// submits; the hook then stamps the first start event and the first
// decide event after it (a decide with no start before it closes a
// computation fabricated by corruption, not this request).
type procMarks struct {
	armed  atomic.Bool
	start  atomic.Int64
	decide atomic.Int64
}

// tracer is the traced run's recorder: the event hook, the per-client
// span buffers, and the codec timings. Spans stay in memory until the
// run ends.
type tracer struct {
	epoch  time.Time
	marks  []procMarks
	events [numEvents]atomic.Int64
	spans  [][]span // per client, appended only by that client
}

func newTracer(n, clients int) *tracer {
	return &tracer{epoch: time.Now(), marks: make([]procMarks, n), spans: make([][]span, clients)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// hook is installed with snapstab.WithEventHook. It runs inside the
// engine, concurrently, so it only bumps counters and stamps marks.
func (t *tracer) hook(e snapstab.ObservedEvent) {
	switch e.Kind {
	case "start":
		if m := &t.marks[e.Proc]; m.armed.Load() && m.start.Load() == 0 {
			m.start.Store(t.now())
		}
	case "decide":
		if m := &t.marks[e.Proc]; m.armed.Load() && m.start.Load() != 0 && m.decide.Load() == 0 {
			m.decide.Store(t.now())
		}
	default:
		if i, ok := eventIndex[e.Kind]; ok {
			t.events[i].Add(1)
		}
	}
}

// arm prepares proc's marks for a request about to be submitted.
func (t *tracer) arm(proc int) {
	m := &t.marks[proc]
	m.start.Store(0)
	m.decide.Store(0)
	m.armed.Store(true)
}

// disarm stops stamping proc and returns the marks taken (0 = unseen).
func (t *tracer) disarm(proc int) (start, decide int64) {
	m := &t.marks[proc]
	m.armed.Store(false)
	return m.start.Load(), m.decide.Load()
}

func (t *tracer) eventCounts() (out [numEvents]int64) {
	for i := range out {
		out[i] = t.events[i].Load()
	}
	return out
}

// record appends a span for client c.
func (t *tracer) record(c int, req int64, name string, start, end int64) {
	t.spans[c] = append(t.spans[c], span{Req: req, Name: name, Start: start, End: end})
}

// requestSpans records the request span and its children from the
// client's four timestamps and the hook's marks. Children that the hook
// did not see are left out, so they show up in the residual.
func (t *tracer) requestSpans(c int, req int64, t0, t1, t3, start, decide int64) {
	t.record(c, req, spanRequest, t0, t3)
	t.record(c, req, spanSubmit, t0, t1)
	if start == 0 || decide == 0 {
		return
	}
	// The start event can precede BroadcastAsync's return on another
	// core; the lag is then zero, not negative, so the children still
	// partition the request.
	start = max(start, t1)
	decide = min(max(decide, start), t3)
	t.record(c, req, spanStartLag, t1, start)
	t.record(c, req, spanCompute, start, decide)
	t.record(c, req, spanObserveLag, decide, t3)
}

// spanStats sums recorded spans by name.
type spanStats struct {
	count map[string]int64
	total map[string]int64 // ns
	// childOfRequest is the summed duration of request's direct children.
	childOfRequest int64
}

// stats sums the spans of every request whose request span ended by
// untilNs, the end of the measured window, so span timings cover the
// same requests as the window's counters; set-up spans (negative request
// id) always count. A request's spans are contiguous in its client's
// buffer.
func (t *tracer) stats(untilNs int64) spanStats {
	st := spanStats{count: map[string]int64{}, total: map[string]int64{}}
	for _, list := range t.spans {
		for lo := 0; lo < len(list); {
			hi := lo
			keep := list[lo].Req < 0
			for ; hi < len(list) && list[hi].Req == list[lo].Req; hi++ {
				if list[hi].Name == spanRequest && list[hi].End <= untilNs {
					keep = true
				}
			}
			if keep {
				for _, s := range list[lo:hi] {
					st.count[s.Name]++
					st.total[s.Name] += s.dur()
					if parentOf[s.Name] == spanRequest {
						st.childOfRequest += s.dur()
					}
				}
			}
			lo = hi
		}
	}
	return st
}

// meanUs is the mean duration of the named span in microseconds.
func (s spanStats) meanUs(name string) float64 {
	return ratio(float64(s.total[name]), float64(s.count[name])) / 1e3
}

// perRequestMs is the named span's total divided by the number of
// request spans, in milliseconds: rows that partition a request then sum
// to its mean span.
func (s spanStats) perRequestMs(name string) float64 {
	return ratio(float64(s.total[name]), float64(s.count[spanRequest])) / 1e6
}

// write saves every span as one JSON line, gzipped, to dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type line struct {
		span
		Client int    `json:"client"`
		Parent string `json:"parent,omitempty"`
	}
	for c, list := range t.spans {
		for _, s := range list {
			if err := enc.Encode(line{span: s, Client: c, Parent: parentOf[s.Name]}); err != nil {
				f.Close()
				return "", fmt.Errorf("trace encode: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace gzip: %w", err)
	}
	return path, f.Close()
}

// timedCodec wraps a workload's codec in traced runs, timing every call
// wherever it happens: the client's marshal and unmarshal, and each
// responder's receiver transform.
type timedCodec[T any] struct {
	inner snapstab.Codec[T]
	c     *codecCounters
}

type codecCounters struct {
	marshalN, marshalNs, unmarshalN, unmarshalNs atomic.Int64
}

type codecSnapshot struct{ marshalN, marshalNs, unmarshalN, unmarshalNs int64 }

func (c *codecCounters) snapshot() codecSnapshot {
	if c == nil {
		return codecSnapshot{}
	}
	return codecSnapshot{c.marshalN.Load(), c.marshalNs.Load(), c.unmarshalN.Load(), c.unmarshalNs.Load()}
}

func (tc timedCodec[T]) Marshal(v T) ([]byte, error) {
	t := time.Now()
	b, err := tc.inner.Marshal(v)
	tc.c.marshalNs.Add(int64(time.Since(t)))
	tc.c.marshalN.Add(1)
	return b, err
}

func (tc timedCodec[T]) Unmarshal(data []byte) (T, error) {
	t := time.Now()
	v, err := tc.inner.Unmarshal(data)
	tc.c.unmarshalNs.Add(int64(time.Since(t)))
	tc.c.unmarshalN.Add(1)
	return v, err
}
