package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// submitEvents is the SubmitBatch size of the in-process closed loop,
// matching the wire's frame size.
const submitEvents = 64

// engineRun is an in-process engine with its alarm reader goroutine.
type engineRun struct {
	eng  *core.Engine
	sink chan core.Alarm
	col  *collector
	sent int
}

// newEngineRun starts an engine with the model's calibrated monitor;
// compactAfter > 0 turns on the engine's background compaction of idle
// sessions.
func newEngineRun(m *model, shards int, compactAfter time.Duration) (*engineRun, error) {
	eng, err := core.NewEngine(m.det, core.EngineConfig{Shards: shards, Monitor: m.mcfg, CompactAfter: compactAfter})
	if err != nil {
		return nil, err
	}
	// The sink absorbs a whole wave's alarms, so shards rarely wait on
	// the reader.
	r := &engineRun{eng: eng, sink: make(chan core.Alarm, 4096), col: newCollector()}
	go func() {
		defer close(r.col.done)
		for a := range r.sink {
			r.col.add(a, time.Since(r.col.epoch))
		}
	}()
	return r, nil
}

// close stops the engine, then the reader.
func (r *engineRun) close() {
	r.eng.Close()
	close(r.sink)
	<-r.col.done
}

// chunkSource yields the next events to submit and whether they end a
// unit of the stream. A phase stops only at a unit's end, so every
// generated event is submitted. With compact set, a unit is a revisit
// round and every live session is compacted after it (Engine.Compact
// between rounds).
type chunkSource struct {
	next    func(buf []actionlog.Event) ([]actionlog.Event, bool)
	compact bool
}

func streamChunks(gen *streamGen) chunkSource {
	return chunkSource{next: func(buf []actionlog.Event) ([]actionlog.Event, bool) {
		buf = buf[:0]
		for len(buf) < submitEvents {
			ev, _ := gen.nextEvent()
			buf = append(buf, ev)
		}
		return buf, true
	}}
}

func roundChunks(p *residentPlan) chunkSource {
	var round []planned
	off := 0
	return chunkSource{compact: true, next: func(buf []actionlog.Event) ([]actionlog.Event, bool) {
		if off == len(round) {
			round, off = p.round(round[:0]), 0
		}
		end := min(off+submitEvents, len(round))
		buf = buf[:0]
		for _, pl := range round[off:end] {
			buf = append(buf, p.event(pl))
		}
		off = end
		return buf, off == len(round)
	}}
}

// rtSample reads the runtime counters the in-process layer metrics use.
type rtSample struct{ allocs, gcCPU, totalCPU, cycles float64 }

var rtNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3)}
}

// inSaturation is the in-process closed loop's outcome.
type inSaturation struct {
	events    int
	wall      time.Duration
	cpu       time.Duration
	submitUs  []float64
	blocked   time.Duration
	rt0, rt1  rtSample
	batches   uint64
	submitted uint64
	// rate and cpuPerEvent are the medians over the phase's slices, in
	// events per second and microseconds; rates and cpus are the slices'.
	rate, cpuPerEvent float64
	rates, cpus       []float64
}

// satSlices is how many back-to-back closed-loop slices an in-process
// saturation phase is cut into. Throughput and CPU per event are the
// medians over slices, so a few seconds of interference on a shared
// host move them less.
const satSlices = 10

// warmSlices is how many slices open an in-process saturation phase
// unmeasured: the engine's session population, heap and GC pacing move
// from the open loop's rate to saturation's over them. Their events are
// sent and checked like any other.
const warmSlices = 2

// saturate runs a closed-loop phase: one slice of exactly maxEvents
// events when maxEvents is positive, else warmSlices unmeasured and then
// satSlices measured windows, together lasting d, and a final drain.
// A window does not wait for its events: the engine's queues (256
// batches per shard) hold seconds of LSTM work, and draining them at
// every window would stretch the phase far past d. A window's
// throughput is the processed counter's advance over it instead, with
// the queues full throughout.
func (r *engineRun) saturate(src chunkSource, d time.Duration, maxEvents int) (inSaturation, error) {
	if maxEvents > 0 {
		s, err := r.saturateSlice(src, 0, maxEvents, true)
		s.rates, s.cpus = []float64{float64(s.events) / s.wall.Seconds()}, []float64{s.cpu.Seconds() * 1e6 / float64(s.events)}
		s.rate, s.cpuPerEvent = s.rates[0], s.cpus[0]
		return s, err
	}
	slices := warmSlices + satSlices
	var res inSaturation
	for k := 0; k < slices; k++ {
		s, err := r.saturateSlice(src, d/time.Duration(slices), 0, k == slices-1)
		if err != nil {
			return res, err
		}
		if k < warmSlices {
			continue
		}
		res.rates = append(res.rates, float64(s.events)/s.wall.Seconds())
		res.cpus = append(res.cpus, s.cpu.Seconds()*1e6/float64(s.events))
		if k == warmSlices {
			res.rt0 = s.rt0
		}
		res.rt1 = s.rt1
		res.events += s.events
		res.wall += s.wall
		res.cpu += s.cpu
		res.submitUs = append(res.submitUs, s.submitUs...)
		res.blocked += s.blocked
		res.batches += s.batches
		res.submitted += s.submitted
	}
	res.rate, res.cpuPerEvent = median(res.rates), median(res.cpus)
	return res, nil
}

// saturateSlice submits chunks as fast as the engine's backpressure
// allows for d (or exactly maxEvents when positive), compacting at round
// ends. With drain set, the clock stops when every event submitted so
// far is processed; without, it stops at the last submission. events
// counts what the engine processed meanwhile.
func (r *engineRun) saturateSlice(src chunkSource, d time.Duration, maxEvents int, drain bool) (inSaturation, error) {
	ctx := context.Background()
	var res inSaturation
	st0 := r.eng.Stats()
	buf := make([]actionlog.Event, 0, submitEvents)
	res.rt0 = readRuntime()
	cpu0 := selfCPU()
	start := time.Now()
	end := true
	submitted := 0
	for {
		if end {
			if maxEvents > 0 {
				if submitted >= maxEvents {
					break
				}
			} else if time.Since(start) >= d {
				break
			}
		}
		buf, end = src.next(buf)
		t := time.Now()
		if err := r.eng.SubmitBatch(ctx, buf, r.sink); err != nil {
			return res, err
		}
		el := time.Since(t)
		res.blocked += el
		res.submitUs = append(res.submitUs, float64(el.Nanoseconds())/1e3)
		submitted += len(buf)
		r.sent += len(buf)
		if end && src.compact {
			r.eng.Compact()
		}
	}
	if drain {
		dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		if err := r.eng.Drain(dctx); err != nil {
			return res, fmt.Errorf("drain: %w", err)
		}
	}
	res.wall = time.Since(start)
	res.cpu = selfCPU() - cpu0
	res.rt1 = readRuntime()
	st1 := r.eng.Stats()
	res.events = int(st1.EventsProcessed - st0.EventsProcessed)
	res.batches = st1.BatchesSubmitted - st0.BatchesSubmitted
	res.submitted = st1.EventsSubmitted - st0.EventsSubmitted
	return res, nil
}

// maxOpenBatch caps one open-loop SubmitBatch call, so a late sender
// catches up in engine-sized batches.
const maxOpenBatch = 512

// roundPlan is engine_resident's open loop: whole revisit rounds,
// planned before the clock starts.
type roundPlan struct {
	evs  []planned
	ends []bool // ends[i]: event i ends a round
	due  dueTable
}

// planRounds plans whole revisit rounds totalling at least n events.
func planRounds(p *residentPlan, n int) *roundPlan {
	rp := &roundPlan{due: make(dueTable, n)}
	for len(rp.evs) < n {
		rp.evs = p.round(rp.evs)
		for len(rp.ends) < len(rp.evs) {
			rp.ends = append(rp.ends, false)
		}
		rp.ends[len(rp.ends)-1] = true
	}
	for i, pl := range rp.evs {
		rp.due[packKey(int(pl.r), int(pl.pos))] = int32(i)
	}
	return rp
}

// planEvents generates an in-process stream's open-loop events before
// the clock starts.
func planEvents(gen *streamGen, n int) ([]actionlog.Event, dueTable) {
	evs := make([]actionlog.Event, n)
	due := make(dueTable, n)
	for i := range evs {
		var pos int
		evs[i], pos = gen.nextEvent()
		due.add(evs[i].SessionID, pos, i)
	}
	return evs, due
}

// olPlan is an in-process open loop: n events made on demand in send
// order, with their due-time keys.
type olPlan struct {
	n     int
	event func(i int) actionlog.Event
	due   dueTable
}

// openLoop submits the plan on the schedule: every event already due
// goes in one SubmitBatch call, and the sender sleeps until the next is
// due. The sender never blocks on anything but the engine's queues: a
// stall would put the generator off its schedule.
func (r *engineRun) openLoop(p *olPlan, sch schedule) (openLoop, error) {
	ctx := context.Background()
	res := openLoop{events: p.n, lagMs: make([]float64, 0, p.n)}
	buf := make([]actionlog.Event, 0, submitEvents)
	start := time.Now()
	r.col.begin(p.due, sch, p.n)
	for i := 0; i < p.n; {
		now := time.Since(start)
		if next := sch.due(i); next > now {
			sleep(next - now)
			continue
		}
		buf = buf[:0]
		j := i
		for j < p.n && sch.due(j) <= now && len(buf) < maxOpenBatch {
			res.lagMs = append(res.lagMs, float64((now-sch.due(j)).Nanoseconds())/1e6)
			buf = append(buf, p.event(j))
			j++
		}
		if err := r.eng.SubmitBatch(ctx, buf, r.sink); err != nil {
			return res, err
		}
		r.sent += j - i
		i = j
	}
	dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	return res, r.eng.Drain(dctx)
}

// heapSettled forces two collections and returns the live heap: a raw
// reading mid-run mixes live data with uncollected garbage.
func heapSettled() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
