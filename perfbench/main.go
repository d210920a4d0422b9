// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed, trains, calibrates and saves the model
// those inputs call for, brings up the system under test (a misused
// daemon, or an in-process core.Engine), drives it with a closed-loop
// saturation phase and a fixed-rate open-loop phase, checks its alarms
// against a serial reference replay, and prints one JSON result line.
// With --trace 1 it also walks the same inputs serially through the
// engine's public functions with a span around each call and reports
// per-layer metrics. See README.md for the workloads and the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload wire_ngram_short --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"misusedetect/internal/baseline"
	"misusedetect/internal/lm"
)

// workload is one benchmark input set and how it is served.
type workload struct {
	name    string
	backend string  // sequence model: baseline.BackendNGram or lm.BackendLSTM
	wire    bool    // served by a misused daemon over TCP
	slots   int     // concurrently open sessions in the stream
	rate    float64 // open-loop offered rate, events per second
	// openShare is the open loop's share of the measured seconds; the
	// rest is saturation.
	openShare float64
	// tick, when not 0, releases the open loop's events in ticks (see
	// schedule).
	tick time.Duration
	walk int // events in the traced walk
	// setups is how many times a trace-0 run sets the system up; setup_s
	// is their median.
	setups int
	// population is engine_resident's number of resident sessions.
	population int
}

// workloads are documented in README.md, with how their offered rates
// were chosen.
var workloads = map[string]*workload{
	"wire_ngram_short": {name: "wire_ngram_short", backend: baseline.BackendNGram, wire: true, slots: 64, rate: 30000, openShare: 0.4, tick: time.Millisecond, walk: 200000, setups: 9},
	"engine_lstm_long": {name: "engine_lstm_long", backend: lm.BackendLSTM, slots: 512, rate: 500, openShare: 0.6, walk: 20000, setups: 3},
	"engine_resident":  {name: "engine_resident", backend: baseline.BackendNGram, rate: 100000, openShare: 0.5, walk: 200000, population: 50000, setups: 3},
}

const shards = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	work     string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: wire_ngram_short, engine_lstm_long or engine_resident")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds: half saturation, half open loop")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced serial walk instead of end-to-end metrics")
	fs.StringVar(&o.daemon, "daemon", "", "path of the misused binary (wire workloads)")
	fs.StringVar(&o.work, "work", "", "scratch directory for model files and daemon logs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || o.work == "" || (trace != 0 && trace != 1) || (w.wire && o.daemon == "") {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (wire_ngram_short|engine_lstm_long|engine_resident), --seconds >= 1, --trace 0|1, --work and, for wire workloads, --daemon")
		os.Exit(2)
	}
	rep, res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if out, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report is printed before the result line: what was run, on what, and
// the figures behind the metrics.
type report struct {
	Workload          string    `json:"workload"`
	Seed              int64     `json:"seed"`
	Trace             bool      `json:"trace"`
	GoVersion         string    `json:"go_version"`
	NumCPU            int       `json:"num_cpu"`
	GOMAXPROCS        int       `json:"gomaxprocs"`
	DaemonProcs       int       `json:"daemon_gomaxprocs,omitempty"`
	Shards            int       `json:"shards"`
	ManifestDigest    string    `json:"manifest_sha256"`
	OfferedRate       float64   `json:"offered_rate_per_s"`
	SetupSeconds      []float64 `json:"setup_seconds"`
	Sessions          uint64    `json:"resident_sessions"`
	AlarmSamples      int       `json:"alarm_latency_samples"`
	AlarmTailPct      float64   `json:"alarm_tail_percentile"`
	AlarmP99Ms        []float64 `json:"alarm_p99_ms_by_window"`
	LagP50Ms          float64   `json:"gen_lag_ms_p50"`
	PeakMemPerSession float64   `json:"peak_mem_per_session_B,omitempty"`
	// OpenLoopCPU is the system under test's CPU seconds per second of
	// the open loop (the benchmark process's in-process, generator
	// included): how far the offered rate is from saturating two CPUs.
	OpenLoopCPU   float64            `json:"open_loop_cpu_s_per_s"`
	SatRates      []float64          `json:"events_per_s_by_slice"`
	SatCPU        []float64          `json:"cpu_us_per_event_by_slice"`
	CheckedAlarms int                `json:"checked_alarms"`
	Mismatches    int                `json:"alarm_mismatches"`
	FailedEvents  int                `json:"failed_events"`
	FailedFrac    float64            `json:"failed_frac"`
	Failures      []string           `json:"failures,omitempty"`
	WalkShare     map[string]float64 `json:"walk_self_share,omitempty"`
}

func run(w *workload, o options) (*report, *result, error) {
	work, err := filepath.Abs(filepath.Join(o.work, w.name+"-"+strconv.FormatInt(o.seed, 10)+"-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	in, err := makeInputs(w, o.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	progress("inputs generated")
	rep := &report{
		Workload: w.name, Seed: o.seed, Trace: o.trace, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Shards: shards, OfferedRate: w.rate,
	}
	m := newMeasurements()
	var attempted int
	if w.wire {
		attempted, err = runWire(w, o, in, work, rep, m)
	} else {
		attempted, err = runInProcess(w, o, in, work, rep, m)
	}
	if err != nil {
		return nil, nil, err
	}
	failed := rep.FailedEvents + rep.Mismatches
	if attempted > 0 {
		rep.FailedFrac = float64(failed) / float64(attempted)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range names {
		v, ok := m.values[n.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", n.name)
		}
		res.Metrics[n.name] = metric{Value: v, Unit: n.unit}
	}
	return rep, res, nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"cpu_us_per_event", "us"},
	{"alarm_p50_ms", "ms"},
	{"mem_per_session_B", "B"},
}

var perLayer = []metricDef{
	{"wire.cost_ns_per_event", "ns"},
	{"core.engine_events_per_s", "1/s"},
	{"wire.frame_write_us.p50", "us"},
	{"wire.frame_write_us.p99", "us"},
	{"daemon.events_per_batch", "count"},
	{"daemon.gc_per_mevent", "count"},
	{"alarm.p90_ms", "ms"},
	{"gen.lag_ms.p99", "ms"},
	{"core.submit_block_frac", "ratio"},
	{"core.submit_us.p99", "us"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"core.staging_ns", "ns"},
	{"actionlog.intern_ns", "ns"},
	{"core.monitor_new_ns", "ns"},
	{"core.stage_vote_ns", "ns"},
	{"ocsvm.route_ns", "ns"},
	{"ocsvm.kernel_evals_per_event", "count"},
	{"core.stage_frozen_ns", "ns"},
	{"core.finish_ns", "ns"},
	{"scorer.advance_ns", "ns"},
	{"scorer.wave_fill", "ratio"},
	{"nn.flops_per_event", "count"},
	{"nn.bytes_per_event", "B"},
	{"core.compact_ns", "ns"},
	{"core.rehydrate_ns", "ns"},
	{"core.snapshot_B", "B"},
	{"core.mem_accounting_ratio", "ratio"},
	{"alarm.encode_ns", "ns"},
	{"alarm.rate", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// measurements collects metric values by name. Per-layer metrics of a
// layer a workload never enters are 0: the layer did no work.
type measurements struct{ values map[string]float64 }

func newMeasurements() *measurements {
	m := &measurements{values: map[string]float64{}}
	for _, d := range perLayer {
		m.values[d.name] = 0
	}
	return m
}

func (m *measurements) set(name string, v float64) { m.values[name] = v }

// progressStart is when the benchmark started; progress lines on
// standard error give the time since.
var progressStart = time.Now()

// progress logs the end of a step of the run on standard error.
func progress(step string) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(progressStart).Seconds(), step)
}

// durSeconds converts durations to seconds.
func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
