// Command perfbench is snapstab's end-to-end benchmark. One run drives
// one workload for a fixed window, checks every output, and prints its
// metrics by name and unit; the last line of standard output is the
// machine-readable result:
//
//	perfbench --workload pif-udp --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no event hook installed. With --trace 1 the same workload runs
// twice in the window, first untraced and then traced, and the result
// carries the per-layer metrics together with the tracing overhead (the
// traced minus the untraced median latency). METRICS.md defines every
// metric and what each layer metric is predicted to move.
//
// With --spread it instead reads result lines on standard input and
// prints each metric's median and quartile spread across them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check (capped), so failures
	// are shown rather than only counted; notes qualify a metric.
	problems, notes []string
	e2e             []metric // with --trace 0
	layers          []metric // with --trace 1
	// extra are reported for reading but carry no bound: metrics that
	// exist on only some workloads, and sample counts.
	extra []metric
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// config is what every workload receives from the command line.
type config struct {
	seed     uint64
	window   time.Duration
	trace    bool
	traceDir string
}

var workloads = map[string]func(config) (*outcome, error){
	"pif-udp":         runPIFUDP,
	"pif-runtime":     runPIFRuntime,
	"pif-tcp-faults":  runPIFTCPFaults,
	"pif-sim-corrupt": runPIFSimCorrupt,
	"flood-udp":       runFloodUDP,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		traceDir = flag.String("trace-dir", "", "directory the traced run writes its spans to (empty = not written)")
		spreadIn = flag.Bool("spread", false, "read result lines on stdin and print each metric's median and quartile spread")
	)
	flag.Parse()
	if *spreadIn {
		if err := printSpread(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, traceDir: *traceDir}
	fmt.Printf("workload %s  seed %d  window %v  trace %d\n", *workload, cfg.seed, cfg.window, *trace)
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := out.e2e
	if cfg.trace {
		metrics = out.layers
	}
	printReport(os.Stdout, out, metrics, cfg.trace)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printReport prints the run for reading: the checks, the result's
// metrics, and the metrics that carry no bound. A traced run also shows
// the end-to-end figures of its untraced half.
func printReport(w io.Writer, out *outcome, metrics []metric, traced bool) {
	fmt.Fprintf(w, "attempted %d  failed %d\n", out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	line := func(m metric, tag string) {
		fmt.Fprintf(w, "  %-32s %18.6f %-6s%s\n", m.name, m.value, m.unit, tag)
	}
	for _, m := range metrics {
		line(m, "")
	}
	if traced {
		for _, m := range out.e2e {
			line(m, "  untraced half")
		}
	}
	line(metric{"fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio"}, "  not bounded")
	for _, m := range out.extra {
		line(m, "  not bounded")
	}
}

// printSpread reads result lines (any other line is skipped) and prints,
// per metric, the median and the quartile distance as a share of it.
func printSpread(r io.Reader, w io.Writer) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("read results: %w", err)
	}
	values := map[string][]float64{}
	runs := 0
	for _, line := range strings.Split(string(data), "\n") {
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if json.Unmarshal([]byte(line), &res) != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if runs < 2 {
		return fmt.Errorf("spread needs at least 2 result lines, got %d", runs)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		med, share := spread(values[name])
		fmt.Fprintf(w, "%-28s runs %2d  median %14.6f  iqr/median %.4f\n", name, len(values[name]), med, share)
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap the last garbage collection found live, in
// MiB: the memory the program holds on to, without the garbage that
// happens to await collection.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// throwawaySetups times n set-ups and tears each down at once. A run
// calls it on each side of its measured window, so the setup_s median
// samples the host at both ends of the run.
func throwawaySetups(n int, setup func() (teardown func(), d time.Duration, err error)) ([]float64, error) {
	var out []float64
	for k := 0; k < n; k++ {
		teardown, d, err := setup()
		if err != nil {
			return nil, err
		}
		teardown()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// requestMetrics reports a window's summary as the bounded end-to-end
// metrics, with the sample count, the CPU per request and the higher
// percentiles (only where at least minBeyond samples lie beyond them)
// beside them. CPU per request is not bounded: on the paced socket
// workloads it is the cost of timer wake-ups and syscalls, which the
// shared host's load moves by more than any bound allows.
func requestMetrics(out *outcome, sm summary, lat []float64, setupS []float64) {
	out.e2e = []metric{
		{"req_p50_ms", sm.p50, "ms"},
		{"req_p90_ms", sm.p90, "ms"},
		{"req_per_s", sm.perSec, "1/s"},
		{"setup_s", median(setupS), "s"},
		{"peak_rss_mb", peakRSSMB(), "MiB"},
		{"live_heap_mb", sm.heapMB, "MiB"},
	}
	out.extra = append(out.extra,
		metric{"req_samples", float64(sm.samples), "count"},
		metric{"cpu_ms_per_req", sm.cpuMsPerReq, "ms"},
	)
	if !sm.p90ok {
		out.notes = append(out.notes, fmt.Sprintf("req_p90_ms rests on %d samples, fewer than %d beyond it", sm.samples, minBeyond))
	}
	if sm.perSlice {
		out.notes = append(out.notes, fmt.Sprintf("latency, rate and CPU are medians over %d slices of the window", subWindows))
	}
	sorted := sortedCopy(lat)
	for _, p := range []struct {
		name string
		q    float64
	}{{"req_p99_ms", 0.99}, {"req_p999_ms", 0.999}} {
		if v, ok := percentile(sorted, p.q); ok {
			out.extra = append(out.extra, metric{p.name, v, "ms"})
		}
	}
}

// layerMetrics lists every per-layer metric in report order, with its
// unit. A workload reports 0 for a layer it does not exercise.
var layerMetrics = []struct{ name, unit string }{
	{"facade.submit_us", "us"},
	{"facade.start_lag_ms", "ms"},
	{"facade.observe_lag_ms", "ms"},
	{"facade.feedbacks_us", "us"},
	{"facade.residual_ratio", "ratio"},
	{"codec.marshal_us", "us"},
	{"codec.unmarshal_us", "us"},
	{"codec.calls_per_req", "count"},
	{"pif.compute_ms", "ms"},
	{"pif.sends_per_req", "count"},
	{"pif.delivers_per_req", "count"},
	{"pif.send_lost_per_req", "count"},
	{"pif.lose_per_req", "count"},
	{"pif.accept_ratio", "ratio"},
	{"sim.steps_per_req", "count"},
	{"sim.activations_per_req", "count"},
	{"sim.ns_per_step", "ns"},
	{"config.corrupt_us", "us"},
	{"spec.arm_us", "us"},
	{"spec.report_us", "us"},
	{"spec.violations", "count"},
	{"fault.drops_per_req", "count"},
	{"fault.dups_per_req", "count"},
	{"fault.reorders_per_req", "count"},
	{"udp.msgs_per_datagram", "count"},
	{"udp.send_msgs_per_syscall", "count"},
	{"udp.recv_msgs_per_syscall", "count"},
	{"udp.mailbox_drop_ratio", "ratio"},
	{"tcp.msgs_per_frame", "count"},
	{"tcp.msgs_per_syscall", "count"},
	{"tcp.send_drop_ratio", "ratio"},
	{"tcp.redials", "count"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.bytes_per_msg", "bytes"},
	{"trace.overhead_ms", "ms"},
}

func layerList(vals map[string]float64) []metric {
	out := make([]metric, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = metric{m.name, vals[m.name], m.unit}
	}
	return out
}
