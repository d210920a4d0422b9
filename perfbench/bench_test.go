package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"misusedetect/internal/core"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99.99},
		{99999, 99.9},
		{10000, 99.9},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{20, 50},
		{19, 0},
	} {
		if got := supportedTail(c.n, 100); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := supportedTail(100000, 99); got != 99 {
		t.Errorf("supportedTail caps at the wanted percentile: got %v, want 99", got)
	}
	// Nearest rank: the 99th percentile of 1..1000 is 990, with ten
	// samples beyond it.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[1000-1-i] = float64(i + 1)
	}
	if v, q := tail(vals, 99); v != 990 || q != 99 {
		t.Errorf("tail(1..1000, 99) = %v at p%v, want 990 at p99", v, q)
	}
	if v, q := tail(vals[:500], 99); q != 95 {
		t.Errorf("tail of 500 samples used p%v (value %v), want p95", q, v)
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{layer: layerWalk, start: 0, end: 100, parent: -1},
		{layer: layerIntern, start: 10, end: 40, parent: 0},    // 1
		{layer: layerStageVote, start: 30, end: 60, parent: 0}, // 2: overlaps 1
		{layer: layerFinish, start: 70, end: 80, parent: 0},    // 3
		{layer: layerEncode, start: 15, end: 20, parent: 1},    // nested in 1
		{layer: layerAdvance, start: 75, end: 90, parent: 3},   // runs past its parent
		{layer: layerCompact, start: 12, end: 18, parent: 1},   // overlaps its sibling
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 50 - 10, // children cover [10,60] and [70,80]
		30 - 8,        // [12,20] covered
		30,
		10 - 5, // child clipped to [75,80]
		5, 15, 6,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, layerNames[spans[i].layer], got[i], want[i])
		}
	}
}

func TestTracerLapsAreContiguous(t *testing.T) {
	tr := tracer{on: true, base: time.Now()}
	tr.mark()
	tr.lap(layerIntern, 0)
	tr.lap(layerStaging, 0)
	tr.mark()
	tr.lap(layerFinish, 0)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].start != tr.spans[0].end {
		t.Errorf("lap does not start where the previous span ended")
	}
	if tr.spans[2].start < tr.spans[1].end {
		t.Errorf("span after mark starts before the mark")
	}
	off := tracer{}
	off.mark()
	off.lap(layerIntern, 0)
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded %d spans", len(off.spans))
	}
}

func TestAlarmLatencyFromDueTimeUnderStall(t *testing.T) {
	sch := schedule{rate: 1000} // event i is due at i ms
	due := dueTable{}
	for i := 0; i < 10; i++ {
		due.add(sessionID('o', i%2), i/2, i)
	}
	col := newCollector()
	col.phase.Store(&olPhase{start: 5 * time.Millisecond, due: due, sch: sch, n: 10})
	// The generator stalled from 2 ms to 8 ms: event 3 (session o1,
	// position 1) was due at 3 ms but sent at 8 ms, and its alarm came
	// back 1 ms after the send. Its latency counts the stall.
	col.add(core.Alarm{SessionID: "o1", Position: 1}, 5*time.Millisecond+9*time.Millisecond)
	col.add(core.Alarm{SessionID: "o0", Position: 0}, 5*time.Millisecond+1*time.Millisecond)
	col.end()
	// After the phase: a saturation alarm, not timed.
	col.add(core.Alarm{SessionID: "s0", Position: 0}, 2*time.Second)
	if col.unmatched != 0 || col.count.Load() != 3 {
		t.Fatalf("unmatched %d, counted %d; want 0 and 3", col.unmatched, col.count.Load())
	}
	// Event 0 falls in the first schedule window, event 3 in the second.
	if len(col.lat[0]) != 1 || col.lat[0][0] != 1 {
		t.Errorf("window 0 latencies %v, want [1]", col.lat[0])
	}
	if len(col.lat[1]) != 1 || col.lat[1][0] != 6 {
		t.Errorf("window 1 latencies %v, want [6]: event 3 was due at 3 ms and answered at 9 ms", col.lat[1])
	}
}

func TestScheduleTicks(t *testing.T) {
	// 30 events fall in each 1 ms tick and are due at its start.
	sch := schedule{rate: 30000, tick: time.Millisecond}
	for _, c := range []struct {
		i    int
		want time.Duration
	}{{0, 0}, {29, 0}, {30, time.Millisecond}, {59, time.Millisecond}, {60, 2 * time.Millisecond}, {30000, time.Second}} {
		if got := sch.due(c.i); got != c.want {
			t.Errorf("event %d due at %v, want %v", c.i, got, c.want)
		}
	}
	// Fewer events than ticks: one event every other tick.
	slow := schedule{rate: 500, tick: time.Millisecond}
	if got := slow.due(3); got != 6*time.Millisecond {
		t.Errorf("at 500/s event 3 due at %v, want 6ms", got)
	}
	// No tick: every event is due at its own time.
	if got := (schedule{rate: 30000}).due(29); got != 966666*time.Nanosecond {
		t.Errorf("without a tick event 29 due at %v, want 966.666µs", got)
	}
}

func TestAlarmMatchedByPosition(t *testing.T) {
	sch := schedule{rate: 1000}
	due := dueTable{}
	due.add("o7", 0, 0)
	due.add("o7", 1, 4)
	p := &olPhase{due: due, sch: sch, n: 5}
	w, ms, ok := p.latency("o7", 1, 10*time.Millisecond)
	if !ok || ms != 6 || w != latencyWindows-1 {
		t.Errorf("position 1 matched (%d, %v, %v), want the event due at 4 ms: window %d, 6 ms", w, ms, ok, latencyWindows-1)
	}
	if _, _, ok := p.latency("o7", 2, time.Millisecond); ok {
		t.Errorf("an alarm matching no scheduled event was accepted")
	}
	col := newCollector()
	col.phase.Store(p)
	col.add(core.Alarm{SessionID: "o8", Position: 0}, time.Millisecond)
	if col.unmatched != 1 {
		t.Errorf("unmatched %d, want 1", col.unmatched)
	}
}

func TestWireCost(t *testing.T) {
	// 250k events/s over the wire is 4000 ns per event; 1M events/s
	// in-process is 1000 ns; the wire adds the difference.
	if got := wireCostNs(250000, 1e6); got != 3000 {
		t.Errorf("wireCostNs = %v, want 3000", got)
	}
	if got := wireCostNs(0, 1e6); got != 0 {
		t.Errorf("wireCostNs without a wire rate = %v, want 0", got)
	}
}

// seeded is what a seed determines: the stream the system receives, the
// routers' file checksums, and the bits of the likelihoods the trained
// models give the calibration sessions.
type seeded struct {
	stream  []byte
	routers map[string]string
	probe   []uint64
}

func seededArtifacts(t *testing.T, name string, seed int64) seeded {
	t.Helper()
	w := workloads[name]
	in, err := makeInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "model")
	m, err := buildModel(in, w.backend, seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out seeded
	if w.population == 0 {
		g := newStreamGen('s', in.base, w.slots, seed+10)
		for i := 0; i < 5000; i++ {
			ev, _ := g.nextEvent()
			out.stream = appendEvent(out.stream, &ev)
		}
	} else {
		p, err := newResidentPlan(in, 2*residentRound, seed+30)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range p.fill() {
			out.stream = appendEvent(out.stream, &ev)
		}
		for _, pl := range p.round(nil) {
			ev := p.event(pl)
			out.stream = appendEvent(out.stream, &ev)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct{ Checksums map[string]string }
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	out.routers = map[string]string{}
	for f, sum := range man.Checksums {
		if strings.HasSuffix(f, "-router.gob") {
			out.routers[f] = sum
		}
	}
	for _, s := range in.holdout {
		r, err := m.det.ScoreSession(s)
		if err != nil {
			t.Fatal(err)
		}
		out.probe = append(out.probe, math.Float64bits(r.Score.AvgLikelihood))
	}
	return out
}

// TestSeededInputs pins the benchmark's inputs to its seed. The n-gram
// model files are compared by what they score rather than by checksum:
// their encoding walks Go maps, so two saves of one model differ in
// byte order.
func TestSeededInputs(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := seededArtifacts(t, name, 7), seededArtifacts(t, name, 7)
			if !bytes.Equal(a.stream, b.stream) || !maps.Equal(a.routers, b.routers) || !slices.Equal(a.probe, b.probe) {
				t.Errorf("seed 7 twice: streams equal %v, routers equal %v, scores equal %v",
					bytes.Equal(a.stream, b.stream), maps.Equal(a.routers, b.routers), slices.Equal(a.probe, b.probe))
			}
			c := seededArtifacts(t, name, 8)
			if bytes.Equal(a.stream, c.stream) || maps.Equal(a.routers, c.routers) {
				t.Errorf("seeds 7 and 8 gave the same stream (%v) or routers (%v)", bytes.Equal(a.stream, c.stream), maps.Equal(a.routers, c.routers))
			}
		})
	}
}
