package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// requestDeadline bounds every request; one that passes it counts as
// failed. It is far above every workload's latency, so it fires only on
// a stuck request.
const requestDeadline = 10 * time.Second

// The four request workloads share one closed loop over a typed PIF
// cluster of n=5 processes; they differ in substrate, body, receiver
// and faults. Every input comes from the workload seed.

func runPIFUDP(cfg config) (*outcome, error) {
	return echoWorkload("pif-udp", "udp", snapstab.UDP(), 9).run(cfg)
}

// runPIFRuntime feeds the runtime exactly the inputs pif-udp gets, so
// the two are comparable request for request.
func runPIFRuntime(cfg config) (*outcome, error) {
	return echoWorkload("pif-runtime", "runtime", snapstab.Runtime(), 21).run(cfg)
}

func runPIFSimCorrupt(cfg config) (*outcome, error) {
	w := echoWorkload("pif-sim-corrupt", "sim", snapstab.Sim(), 51)
	w.clients = []int{0}
	w.corruptEach = true
	return w.run(cfg)
}

func runPIFTCPFaults(cfg config) (*outcome, error) {
	w := &pifWorkload[doc]{
		name:      "pif-tcp-faults",
		kind:      "tcp",
		substrate: snapstab.TCP(),
		clients:   []int{0, 1},
		setups:    7,
		codec:     snapstab.JSON[doc](),
		options: func(seed uint64) []snapstab.Option {
			return []snapstab.Option{
				snapstab.WithReceiverT(transformDoc),
				// Drops, duplicates and reorders, but no value
				// corruption, so every feedback stays value-exact.
				snapstab.WithFaults(snapstab.FaultPlan{
					Seed:    mix(seed, 0xfa),
					Default: snapstab.LinkFaults{DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05},
				}),
			}
		},
		body:                docBody,
		expect:              transformDoc,
		equal:               func(a, b doc) bool { return a == b },
		corruptBeforeWindow: true,
		wireShape:           func(seed uint64) []core.Message { return docShape(seed) },
	}
	return w.run(cfg)
}

// echoWorkload is a 64 B Bytes broadcast answered by the default echo
// receiver at every responder.
func echoWorkload(name, kind string, sub snapstab.Substrate, setups int) *pifWorkload[[]byte] {
	return &pifWorkload[[]byte]{
		name:      name,
		kind:      kind,
		substrate: sub,
		clients:   []int{0, 1},
		setups:    setups,
		codec:     snapstab.Bytes,
		options:   func(uint64) []snapstab.Option { return nil },
		body:      bytesBody,
		expect:    func(_, _ int, b []byte) []byte { return b },
		equal:     func(a, b []byte) bool { return string(a) == string(b) },
		wireShape: func(seed uint64) []core.Message { return pifShape(bytesBody(seed, 0, 0), 16) },
	}
}

// pifWorkload describes one closed-loop request workload.
type pifWorkload[T any] struct {
	name      string
	kind      string // substrate family: which counters exist
	substrate snapstab.Substrate
	clients   []int // each client's initiator process
	setups    int   // set-ups per run; setup_s is their median
	codec     snapstab.Codec[T]
	options   func(seed uint64) []snapstab.Option
	body      func(seed uint64, client, i int) T
	expect    func(q, from int, b T) T // the feedback process q returns
	equal     func(a, b T) bool
	// corruptBeforeWindow drives the cluster into an arbitrary
	// configuration once, just before the window; corruptEach does so
	// before every request and checks Specification 1 on each (Sim
	// only).
	corruptBeforeWindow, corruptEach bool
	wireShape                        func(seed uint64) []core.Message
}

const pifN = 5

// rig is one built cluster plus what its traced form records.
type rig[T any] struct {
	c      *snapstab.TypedPIFCluster[T]
	tr     *tracer        // nil when untraced
	codecC *codecCounters // nil when untraced
}

// setup builds a cluster and completes one warm-up request, which dials
// the connections and builds what is built lazily, returning the time
// both took.
func (w *pifWorkload[T]) setup(cfg config, traced bool) (*rig[T], time.Duration, error) {
	t0 := time.Now()
	r := &rig[T]{}
	codec := w.codec
	opts := append([]snapstab.Option{snapstab.WithSeed(cfg.seed), snapstab.WithSubstrate(w.substrate)}, w.options(cfg.seed)...)
	if traced {
		r.tr = newTracer(pifN, len(w.clients))
		r.codecC = &codecCounters{}
		codec = timedCodec[T]{inner: w.codec, c: r.codecC}
		opts = append(opts, snapstab.WithEventHook(r.tr.hook))
	}
	r.c = snapstab.NewTypedPIFCluster[T](pifN, codec, opts...)
	// The warm-up draws from its own input stream (client -1), so the
	// measured requests see the same bodies with or without it.
	b := w.body(cfg.seed, -1, 0)
	req := r.c.BroadcastAsync(0, b)
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	if err := req.Wait(ctx); err != nil {
		r.c.Close()
		return nil, 0, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	if err := w.check(req.Feedbacks(), 0, b); err != nil {
		r.c.Close()
		return nil, 0, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return r, time.Since(t0), nil
}

// corruptFirst drives a warmed-up cluster into an arbitrary
// configuration just before the window opens, when the workload says
// so, so the first measured requests at every client start from it.
// It follows the warm-up rather than preceding it, so set-up time does
// not depend on how far the corrupted state happens to be from a
// decision.
func (w *pifWorkload[T]) corruptFirst(cfg config, r *rig[T]) {
	if !w.corruptBeforeWindow {
		return
	}
	var c0 int64
	if r.tr != nil {
		c0 = r.tr.now()
	}
	r.c.CorruptEverything(cfg.seed)
	if r.tr != nil {
		r.tr.record(0, -1, spanCorrupt, c0, r.tr.now())
	}
}

// check verifies one request's feedback: exactly one value-exact
// feedback from each of the n-1 other processes.
func (w *pifWorkload[T]) check(fbs []snapstab.TypedFeedback[T], from int, b T) error {
	if len(fbs) != pifN-1 {
		return fmt.Errorf("got %d feedbacks, want %d", len(fbs), pifN-1)
	}
	seen := make([]bool, pifN)
	for _, f := range fbs {
		switch {
		case f.From < 0 || f.From >= pifN || f.From == from || seen[f.From]:
			return fmt.Errorf("feedback from unexpected process %d", f.From)
		case f.Err != nil:
			return fmt.Errorf("feedback from %d: %v", f.From, f.Err)
		case !w.equal(f.Value, w.expect(f.From, from, b)):
			return fmt.Errorf("feedback from %d is not the expected value", f.From)
		}
		seen[f.From] = true
	}
	return nil
}

// snap is every counter read at one edge of the measured window.
type snap struct {
	at                 time.Time
	cpu                time.Duration
	ts                 xport
	faults             snapstab.FaultStats
	steps, activations int64
	simSends           int64
	events             [numEvents]int64
	codec              codecSnapshot
}

func (r *rig[T]) snapshot() snap {
	s := snap{at: time.Now(), cpu: cpuTime(), faults: r.c.FaultStats()}
	for _, t := range r.c.TransportStats() {
		s.ts.sends += t.Sends
		s.ts.recvs += t.Recvs
		s.ts.sendDrops += t.SendDrops
		s.ts.mailboxDrops += t.MailboxDrops
		s.ts.redials += t.Redials
		s.ts.frames += t.SendDatagrams
		s.ts.sendSyscalls += t.SendSyscalls
		s.ts.recvSyscalls += t.RecvSyscalls
	}
	st := r.c.Stats()
	s.steps, s.activations, s.simSends = int64(st.Steps), int64(st.Activations), int64(st.Sends)
	if r.tr != nil {
		s.events = r.tr.eventCounts()
	}
	s.codec = r.codecC.snapshot()
	return s
}

// phase is one measured window over one rig.
type phase struct {
	subs              []subWindow
	attempted, failed int64
	problems          []string
	violations        int64
	before, after     snap
	windowEndNs       int64 // window end on the tracer's clock
}

// completed counts the successful requests that finished inside the
// window.
func (ph phase) completed() int64 {
	var n int64
	for _, s := range ph.subs {
		n += s.done
	}
	return n
}

// clientResult is what one client goroutine hands back.
type clientResult struct {
	lat               *slices // ms, successful requests by the slice they completed in
	attempted, failed int64
	violations        int64
	problems          []string
}

// measure runs the closed loop on r for window: every client issues its
// next request as soon as the previous one is decided and checked, and
// stops issuing at the window's end. The counters are read exactly at
// the window's two edges, the CPU clock at every slice edge.
func (w *pifWorkload[T]) measure(cfg config, r *rig[T], window time.Duration) phase {
	var ph phase
	ph.before = r.snapshot()
	start := ph.before.at
	end := start.Add(window)
	if r.tr != nil {
		ph.windowEndNs = int64(end.Sub(r.tr.epoch))
	}
	results := make([]clientResult, len(w.clients))
	var wg sync.WaitGroup
	for ci := range w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			results[ci] = w.client(cfg, r, ci, start, end)
		}(ci)
	}
	ph.subs = make([]subWindow, subWindows)
	prevCPU := ph.before.cpu
	walkWindow(start, window, func(k int, dur time.Duration) {
		ph.subs[k].dur = dur
		ph.subs[k].heapMB = liveHeapMB()
		if k == subWindows-1 {
			ph.after = r.snapshot()
			ph.subs[k].cpu = ph.after.cpu - prevCPU
			return
		}
		c := cpuTime()
		ph.subs[k].cpu, prevCPU = c-prevCPU, c
	})
	wg.Wait()
	for _, cr := range results {
		for k, res := range cr.lat {
			ph.subs[k].done += res.n
			ph.subs[k].lat = append(ph.subs[k].lat, res.vals...)
		}
		ph.attempted += cr.attempted
		ph.failed += cr.failed
		ph.violations += cr.violations
		ph.problems = append(ph.problems, cr.problems...)
	}
	return ph
}

// client is one closed-loop client.
func (w *pifWorkload[T]) client(cfg config, r *rig[T], ci int, start, end time.Time) clientResult {
	res := clientResult{lat: newSlices(mix(cfg.seed, uint64(ci)))}
	slice := end.Sub(start) / subWindows
	fail := func(i int, format string, args ...any) {
		res.failed++
		if len(res.problems) < 5 {
			res.problems = append(res.problems, fmt.Sprintf("client %d request %d: ", ci, i)+fmt.Sprintf(format, args...))
		}
	}
	p := w.clients[ci]
	tr := r.tr
	now := func() int64 {
		if tr == nil {
			return 0
		}
		return tr.now()
	}
	for i := 0; time.Now().Before(end); i++ {
		id := int64(ci)<<40 | int64(i)
		b := w.body(cfg.seed, ci, i)
		res.attempted++
		cycle0 := now()
		if w.corruptEach {
			c0 := now()
			r.c.CorruptEverything(mix(cfg.seed, uint64(i)))
			a0 := now()
			err := r.c.ArmSpec(p, b)
			if tr != nil {
				tr.record(ci, id, spanCorrupt, c0, a0)
				tr.record(ci, id, spanArm, a0, tr.now())
			}
			if err != nil {
				fail(i, "ArmSpec: %v", err)
				continue
			}
		}
		if tr != nil {
			tr.arm(p)
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
		t0 := time.Now()
		n0 := now()
		req := r.c.BroadcastAsync(p, b)
		n1 := now()
		err := req.Wait(ctx)
		t3 := time.Now()
		n3 := now()
		cancel()
		if tr != nil {
			started, decided := tr.disarm(p)
			tr.requestSpans(ci, id, n0, n1, n3, started, decided)
		}
		if err != nil {
			fail(i, "%v", err)
			continue
		}
		f0 := now()
		fbs := req.Feedbacks()
		if tr != nil {
			tr.record(ci, id, spanFeedbacks, f0, tr.now())
		}
		if err := w.check(fbs, p, b); err != nil {
			fail(i, "%v", err)
			continue
		}
		if w.corruptEach {
			s0 := now()
			rep := r.c.SpecReport()
			if tr != nil {
				tr.record(ci, id, spanReport, s0, tr.now())
			}
			res.violations += int64(len(rep.Violations))
			if !rep.Started || !rep.Decided || !rep.ValueChecked || len(rep.Violations) > 0 {
				fail(i, "spec report started=%v decided=%v value-checked=%v violations=%v",
					rep.Started, rep.Decided, rep.ValueChecked, rep.Violations)
				continue
			}
		}
		if tr != nil {
			tr.record(ci, id, spanCycle, cycle0, tr.now())
		}
		if !t3.After(end) {
			res.lat[min(int(t3.Sub(start)/slice), subWindows-1)].add(float64(t3.Sub(t0)) / 1e6)
		}
	}
	return res
}

// run performs the set-ups and the measured window (trace 0), or the
// untraced and traced halves of the window (trace 1).
func (w *pifWorkload[T]) run(cfg config) (*outcome, error) {
	out := &outcome{}
	extra := w.setups - 1
	if cfg.trace {
		extra = 0
	}
	throwaway := func() (func(), time.Duration, error) {
		r, d, err := w.setup(cfg, false)
		if err != nil {
			return nil, 0, err
		}
		return func() { r.c.Close() }, d, nil
	}
	setupS, err := throwawaySetups(extra/2, throwaway)
	if err != nil {
		return nil, err
	}
	r, d, err := w.setup(cfg, false)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, d.Seconds())
	w.corruptFirst(cfg, r)
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	ph := w.measure(cfg, r, window)
	r.c.Close()
	after, err := throwawaySetups(extra-extra/2, throwaway)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, after...)
	w.account(out, ph)
	sm := summarize(ph.subs)
	requestMetrics(out, sm, pooled(ph.subs), setupS)
	if w.kind != "runtime" {
		sends := ph.after.ts.sends - ph.before.ts.sends
		if w.kind == "sim" {
			sends = ph.after.simSends - ph.before.simSends
		}
		out.extra = append(out.extra, metric{"msgs_per_req", perReq(0, sends, ph.completed()), "count"})
	}
	if !cfg.trace {
		return out, nil
	}

	traced, _, err := w.setup(cfg, true)
	if err != nil {
		return nil, err
	}
	w.corruptFirst(cfg, traced)
	tp := w.measure(cfg, traced, window)
	traced.c.Close()
	w.account(out, tp)
	out.layers = w.layers(out, cfg, traced, tp, summarize(tp.subs).p50-sm.p50)
	if cfg.traceDir != "" {
		path, err := traced.tr.write(cfg.traceDir, w.name)
		if err != nil {
			return nil, err
		}
		fmt.Println("spans written to", path)
	}
	return out, nil
}

func (w *pifWorkload[T]) account(out *outcome, ph phase) {
	out.attempted += ph.attempted
	out.failed += ph.failed
	out.problems = append(out.problems, ph.problems...)
}

// layers computes the per-layer metrics of a traced phase. Counters are
// deltas across the window's edges over the requests completed inside
// it; span timings cover those same requests.
func (w *pifWorkload[T]) layers(out *outcome, cfg config, r *rig[T], ph phase, overheadMs float64) []metric {
	b, a, done := ph.before, ph.after, ph.completed()
	st := r.tr.stats(ph.windowEndNs)
	per := func(x, y int64) float64 { return perReq(x, y, done) }
	ev := func(i int) float64 { return float64(a.events[i] - b.events[i]) }
	vals := map[string]float64{
		"facade.submit_us":        st.meanUs(spanSubmit),
		"facade.start_lag_ms":     st.perRequestMs(spanStartLag),
		"facade.observe_lag_ms":   st.perRequestMs(spanObserveLag),
		"facade.feedbacks_us":     st.meanUs(spanFeedbacks),
		"facade.residual_ratio":   residual(st.total[spanRequest], st.childOfRequest),
		"codec.marshal_us":        ratio(float64(a.codec.marshalNs-b.codec.marshalNs), float64(a.codec.marshalN-b.codec.marshalN)) / 1e3,
		"codec.unmarshal_us":      ratio(float64(a.codec.unmarshalNs-b.codec.unmarshalNs), float64(a.codec.unmarshalN-b.codec.unmarshalN)) / 1e3,
		"codec.calls_per_req":     per(b.codec.marshalN+b.codec.unmarshalN, a.codec.marshalN+a.codec.unmarshalN),
		"pif.compute_ms":          st.perRequestMs(spanCompute),
		"pif.sends_per_req":       per(b.events[evSend], a.events[evSend]),
		"pif.delivers_per_req":    per(b.events[evDeliver], a.events[evDeliver]),
		"pif.send_lost_per_req":   per(b.events[evSendLost], a.events[evSendLost]),
		"pif.lose_per_req":        per(b.events[evLose], a.events[evLose]),
		"pif.accept_ratio":        ratio(ev(evRecvBrd)+ev(evRecvFck), ev(evDeliver)),
		"sim.steps_per_req":       per(b.steps, a.steps),
		"sim.activations_per_req": per(b.activations, a.activations),
		"sim.ns_per_step":         ratio(float64(st.total[spanRequest]), float64(a.steps-b.steps)),
		"config.corrupt_us":       st.meanUs(spanCorrupt),
		"spec.arm_us":             st.meanUs(spanArm),
		"spec.report_us":          st.meanUs(spanReport),
		"spec.violations":         float64(ph.violations),
		"fault.drops_per_req":     per(b.faults.Drops, a.faults.Drops),
		"fault.dups_per_req":      per(b.faults.Duplicates, a.faults.Duplicates),
		"fault.reorders_per_req":  per(b.faults.Reorders, a.faults.Reorders),
		"trace.overhead_ms":       overheadMs,
	}
	transportLayers(vals, w.kind, b.ts, a.ts)
	wireLayers(out, vals, w.wireShape(cfg.seed))
	return layerList(vals)
}

// xport is the transport counters summed over a cluster's nodes.
type xport struct {
	sends, recvs, sendDrops, mailboxDrops, redials int64
	frames, sendSyscalls, recvSyscalls             int64
}

// transportLayers derives the udp.* or tcp.* rows of kind from
// transport counter deltas.
func transportLayers(vals map[string]float64, kind string, b, a xport) {
	d := func(x, y int64) float64 { return float64(y - x) }
	sends, recvs := d(b.sends, a.sends), d(b.recvs, a.recvs)
	drops := d(b.mailboxDrops, a.mailboxDrops)
	switch kind {
	case "udp":
		vals["udp.msgs_per_datagram"] = ratio(sends, d(b.frames, a.frames))
		vals["udp.send_msgs_per_syscall"] = ratio(sends, d(b.sendSyscalls, a.sendSyscalls))
		vals["udp.recv_msgs_per_syscall"] = ratio(recvs+drops, d(b.recvSyscalls, a.recvSyscalls))
		vals["udp.mailbox_drop_ratio"] = ratio(drops, recvs+drops)
	case "tcp":
		sendDrops := d(b.sendDrops, a.sendDrops)
		vals["tcp.msgs_per_frame"] = ratio(sends, d(b.frames, a.frames))
		vals["tcp.msgs_per_syscall"] = ratio(sends, d(b.sendSyscalls, a.sendSyscalls))
		vals["tcp.send_drop_ratio"] = ratio(sendDrops, sends+sendDrops)
		vals["tcp.redials"] = d(b.redials, a.redials)
	}
}

// wireLayers fills the wire.* rows from the workload's message shape; a
// failed round-trip check counts as a failed operation.
func wireLayers(out *outcome, vals map[string]float64, msgs []core.Message) {
	out.attempted++
	enc, dec, bpm, err := wireCost(msgs)
	if err != nil {
		out.fail("%v", err)
		return
	}
	vals["wire.encode_ns_per_msg"] = enc
	vals["wire.decode_ns_per_msg"] = dec
	vals["wire.bytes_per_msg"] = bpm
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

// mix derives an independent 64-bit value from (seed, salt): splitmix64.
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill writes a seeded byte stream into b.
func fill(b []byte, seed uint64) {
	for i := 0; i < len(b); i += 8 {
		v := mix(seed, uint64(i))
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

func inputSeed(seed uint64, client, i int) uint64 {
	return mix(mix(seed, uint64(client+1)), uint64(i))
}

// bytesBody is request i of client's 64 B body.
func bytesBody(seed uint64, client, i int) []byte {
	b := make([]byte, 64)
	fill(b, inputSeed(seed, client, i))
	return b
}

// doc is pif-tcp-faults' 4 KiB JSON body. The client fills Seq, Client,
// Text and Sum; each responder's transform fills By and Check.
type doc struct {
	Seq    int    `json:"seq"`
	Client int    `json:"client"`
	Text   string `json:"text"`
	Sum    uint64 `json:"sum"`
	By     int    `json:"by"`
	Check  uint64 `json:"check"`
}

// docTextBytes sizes Text so a marshaled doc is close to 4 KiB.
const docTextBytes = 2000

func docBody(seed uint64, client, i int) doc {
	raw := make([]byte, docTextBytes)
	fill(raw, inputSeed(seed, client, i))
	d := doc{Seq: i, Client: client, Text: hex.EncodeToString(raw)}
	d.Sum = textSum(d.Text)
	return d
}

func textSum(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// transformDoc is the receiver every responder runs: it re-hashes the
// text it was sent and signs the result with its own process id.
func transformDoc(proc, from int, b doc) doc {
	b.By = proc
	b.Check = textSum(b.Text) ^ uint64(proc)<<32 ^ uint64(from)
	return b
}

// pifShape is a batch of k PIF messages carrying body both ways, the
// shape a responder sends back to the initiator.
func pifShape(body []byte, k int) []core.Message {
	msgs := make([]core.Message, k)
	for i := range msgs {
		msgs[i] = core.Message{
			Instance: "pif", Kind: pif.Kind,
			B:     core.Payload{Tag: "app", Blob: body},
			F:     core.Payload{Tag: "app", Blob: body},
			State: uint8(i % 130), Echo: uint8((i + 1) % 130),
		}
	}
	return msgs
}

// docShape is pif-tcp-faults' message shape: a 4 KiB marshaled doc as
// broadcast and its transform as feedback, as many as one frame holds.
func docShape(seed uint64) []core.Message {
	d := docBody(seed, 0, 0)
	// A doc holds only strings and integers, so marshaling cannot fail.
	bb, _ := snapstab.JSON[doc]().Marshal(d)
	fb, _ := snapstab.JSON[doc]().Marshal(transformDoc(1, 0, d))
	msgs := pifShape(bb, 7)
	for i := range msgs {
		msgs[i].F.Blob = fb
	}
	return msgs
}
