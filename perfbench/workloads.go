package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/lm"
)

// residentCompactAfter is engine_resident's background compaction
// delay. A revisit burst's events arrive about 20 ms apart in the open
// loop, so a session is compacted soon after its burst ends, while the
// open-loop sender never waits on Engine.Compact.
const residentCompactAfter = 50 * time.Millisecond

// warmActions is how many events each open session of an in-process
// stream gets before measuring starts: one more than the routing vote.
const warmActions = 16

// scoreBatch is the engine's default ScoreBatch, which the traced walk's
// waves mirror.
const scoreBatch = 64

// countFailures adds every event the system did not score to the
// report: processed-count shortfalls, refusals, sheds, score errors and
// dropped alarms.
func countFailures(rep *report, sent int, st core.EngineStats) {
	add := func(n int, what string) {
		if n != 0 {
			rep.FailedEvents += n
			rep.Failures = append(rep.Failures, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(sent-int(st.EventsProcessed), "events sent but not processed")
	add(int(st.ScoreErrors), "score errors")
	add(int(st.ShedEvents), "shed events")
	add(int(st.AlarmsShed), "shed alarms")
}

// latencyMetrics sets the open-loop alarm latency metrics: the median
// over all alarms, and the median of the schedule windows' p90 (or of
// the highest percentile every window supports), a per-layer figure.
// The windows' p99 go to the report only. On a shared 2-CPU host the
// tail moves with load from outside the benchmark, p99 and p95 two- to
// threefold, p90 up to threefold in a few runs of ten: past any bound a
// regression check could use.
func latencyMetrics(m *measurements, rep *report, col *collector, ol openLoop) error {
	if col.unmatched > 0 {
		return fmt.Errorf("%d open-loop alarms match no scheduled event", col.unmatched)
	}
	var all []float64
	used := 90.0
	for _, w := range col.lat {
		all = append(all, w...)
		used = min(used, supportedTail(len(w), 90))
	}
	if used == 0 {
		return fmt.Errorf("open-loop phase raised too few alarms to time: %d", len(all))
	}
	var tails []float64
	for _, w := range col.lat {
		sorted := sortedCopy(w)
		tails = append(tails, percentile(sorted, used))
		p99, _ := tail(sorted, 99)
		rep.AlarmP99Ms = append(rep.AlarmP99Ms, p99)
	}
	m.set("alarm_p50_ms", median(all))
	m.set("alarm.p90_ms", median(tails))
	rep.AlarmSamples, rep.AlarmTailPct = len(all), used
	lag, _ := tail(ol.lagMs, 99)
	m.set("gen.lag_ms.p99", lag)
	rep.LagP50Ms = median(ol.lagMs)
	return nil
}

// setupTimes sets up n times and sets setup_s to the median. prepare,
// when not nil, generates a set-up's inputs before its clock starts.
func setupTimes(m *measurements, rep *report, n int, prepare func(), setup func() error) error {
	var ts []time.Duration
	for k := 0; k < n; k++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0))
	}
	rep.SetupSeconds = durSeconds(ts)
	m.set("setup_s", median(rep.SetupSeconds))
	return nil
}

func runWire(w *workload, o options, in *inputs, work string, rep *report, m *measurements) (int, error) {
	var mod *model
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	n := w.setups
	if o.trace {
		n = 1
	}
	err := setupTimes(m, rep, n, nil, func() error {
		if d != nil {
			d.stop()
			d = nil
		}
		var err error
		if mod, err = buildModel(in, w.backend, o.seed, filepath.Join(work, "model")); err != nil {
			return err
		}
		d, err = startDaemon(o.daemon, mod, shards, work)
		return err
	})
	if err != nil {
		return 0, err
	}
	progress("set up")
	rep.ManifestDigest, rep.DaemonProcs = mod.digest, d.procs
	c := newWireClient(d)
	olDur, satDur := phases(w, o.seconds)
	sch := schedule{rate: w.rate, tick: w.tick}

	olGen := newStreamGen('o', in.base, w.slots, o.seed+20)
	lp := planLines(olGen, int(w.rate*olDur.Seconds()))
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	ol, err := c.openLoop(lp, sch)
	lp = nil
	if err != nil {
		return 0, err
	}
	if cpu1, err := procCPU(d.cmd.Process.Pid); err == nil {
		rep.OpenLoopCPU = (cpu1 - cpu0).Seconds() / olDur.Seconds()
	}
	st, err := c.waitProcessed(60 * time.Second)
	if err != nil {
		return 0, err
	}
	if err := waitAlarms(c.col, st.AlarmsRaised, 30*time.Second); err != nil {
		return 0, err
	}
	c.col.end()
	progress("open loop")

	satGen := newStreamGen('s', in.base, w.slots, o.seed+10)
	sat, err := c.saturate(satGen, satDur)
	if err != nil {
		return 0, err
	}
	if st, err = c.status(); err != nil {
		return 0, err
	}
	if err := waitAlarms(c.col, st.AlarmsRaised, 30*time.Second); err != nil {
		return 0, err
	}
	progress("saturation")
	if hwm, err := procStatusBytes(d.cmd.Process.Pid, "VmHWM:"); err == nil && c.col.maxLive > 0 {
		rep.PeakMemPerSession = float64(hwm-d.readyRSS) / float64(c.col.maxLive)
	}
	d.stop()
	<-c.col.done
	countFailures(rep, c.sent, st)
	record := append(olGen.record, satGen.record...)
	if rep.Mismatches, err = checkAlarms(mod.det, mod.mcfg, record, 0, c.col.alarms); err != nil {
		return 0, err
	}
	rep.CheckedAlarms = countSampled(c.col.alarms)
	progress("output check")
	rep.Sessions = c.col.maxLive

	eps := sat.rate
	m.set("events_per_s", eps)
	m.set("cpu_us_per_event", sat.cpuPerEvent)
	rep.SatRates, rep.SatCPU = sat.rates, sat.cpus
	// Idle sessions are evicted, so at the open loop's fixed rate resident
	// memory and sessions plateau; the median over its samples evens out
	// where each sample falls in the GC cycle, which a peak reading does
	// not.
	if len(c.col.memPerSession) == 0 {
		return 0, fmt.Errorf("no memory samples in the open loop")
	}
	m.set("mem_per_session_B", median(c.col.memPerSession))
	if err := latencyMetrics(m, rep, c.col, ol); err != nil {
		return 0, err
	}
	m.set("wire.frame_write_us.p50", median(sat.frameUs))
	p99, _ := tail(sat.frameUs, 99)
	m.set("wire.frame_write_us.p99", p99)
	m.set("daemon.events_per_batch", float64(sat.submitted)/float64(max(sat.batches, 1)))
	m.set("daemon.gc_per_mevent", float64(sat.gcs)*1e6/float64(sat.events))
	m.set("alarm.rate", float64(st.AlarmsRaised)/float64(c.sent))

	if o.trace {
		// The in-process replay: the identical saturation stream, model
		// directory, thresholds and shard count, without the wire.
		r, err := newEngineRun(mod, shards, 0)
		if err != nil {
			return 0, err
		}
		src := streamChunks(newStreamGen('s', in.base, w.slots, o.seed+10))
		_, err = r.saturate(src, 0, sat.warmEvents)
		var isat inSaturation
		if err == nil {
			isat, err = r.saturate(src, 0, sat.events)
		}
		r.close()
		if err != nil {
			return 0, err
		}
		engEps := isat.rate
		m.set("core.engine_events_per_s", engEps)
		m.set("wire.cost_ns_per_event", wireCostNs(eps, engEps))
		inProcessLayers(m, isat)
		walkEvs := firstEvents(newStreamGen('o', in.base, w.slots, o.seed+20), w.walk)
		if err := walkLayers(m, rep, w, &walkInput{det: mod.det, mcfg: mod.mcfg, scoreBatch: scoreBatch, events: walkEvs}); err != nil {
			return 0, err
		}
	}
	return c.sent, nil
}

// runInProcess runs an in-process workload: engine_resident's revisit
// rounds over a resident population, or engine_lstm_long's interleaved
// stream.
func runInProcess(w *workload, o options, in *inputs, work string, rep *report, m *measurements) (int, error) {
	var mod *model
	var r *engineRun
	var plan *residentPlan // engine_resident only
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	n := w.setups
	if o.trace {
		n = 1
	}
	var fill []actionlog.Event
	var planErr error
	prepare := func() {
		if w.population == 0 {
			return
		}
		if plan, planErr = newResidentPlan(in, w.population, o.seed+30); planErr == nil {
			fill = plan.fill()
		}
	}
	err := setupTimes(m, rep, n, prepare, func() error {
		if planErr != nil {
			return planErr
		}
		if r != nil {
			r.close()
			r = nil
		}
		var err error
		if mod, err = buildModel(in, w.backend, o.seed, filepath.Join(work, "model")); err != nil {
			return err
		}
		compactAfter := time.Duration(0)
		if w.population > 0 {
			compactAfter = residentCompactAfter
		}
		if r, err = newEngineRun(mod, shards, compactAfter); err != nil {
			return err
		}
		if fill == nil {
			return nil
		}
		// The resident population: played past its vote, then compacted.
		for off := 0; off < len(fill); off += submitEvents {
			if err := r.eng.SubmitBatch(context.Background(), fill[off:min(off+submitEvents, len(fill))], nil); err != nil {
				return err
			}
		}
		r.sent = len(fill)
		if err := r.eng.Drain(context.Background()); err != nil {
			return err
		}
		r.eng.Compact()
		return nil
	})
	if err != nil {
		return 0, err
	}
	progress("set up")
	fill = nil
	rep.ManifestDigest = mod.digest
	// Alarms raised during the fill went to no sink.
	raised0 := r.eng.Stats().AlarmsRaised
	olDur, satDur := phases(w, o.seconds)
	sch := schedule{rate: w.rate, tick: w.tick}
	nOpen := int(w.rate * olDur.Seconds())

	var (
		op   *olPlan
		src  chunkSource
		skip int // recorded events played before any alarm was collected
		gen  *streamGen
	)
	if plan != nil {
		skip = len(plan.record)
		rp := planRounds(plan, nOpen)
		op = &olPlan{n: len(rp.evs), due: rp.due, event: func(i int) actionlog.Event { return plan.event(rp.evs[i]) }}
		src = roundChunks(plan)
	} else {
		// One stream runs through both phases. Its sessions are first
		// played past their routing vote, untimed, so the measured
		// phases see the marathon sessions' steady state rather than a
		// crowd of fresh sessions all voting at once.
		gen = newStreamGen('o', in.base, w.slots, o.seed+20)
		warm := firstEvents(gen, w.slots*warmActions)
		for off := 0; off < len(warm); off += submitEvents {
			if err := r.eng.SubmitBatch(context.Background(), warm[off:min(off+submitEvents, len(warm))], r.sink); err != nil {
				return 0, err
			}
		}
		r.sent += len(warm)
		if err := r.eng.Drain(context.Background()); err != nil {
			return 0, err
		}
		if err := waitAlarms(r.col, r.eng.Stats().AlarmsRaised-raised0, 30*time.Second); err != nil {
			return 0, err
		}
		evs, due := planEvents(gen, nOpen)
		op = &olPlan{n: len(evs), due: due, event: func(i int) actionlog.Event { return evs[i] }}
		src = streamChunks(gen)
	}
	cpu0 := selfCPU()
	ol, err := r.openLoop(op, sch)
	op = nil
	if err != nil {
		return 0, err
	}
	rep.OpenLoopCPU = (selfCPU() - cpu0).Seconds() / olDur.Seconds()
	if err := waitAlarms(r.col, r.eng.Stats().AlarmsRaised-raised0, 30*time.Second); err != nil {
		return 0, err
	}
	r.col.end()
	progress("open loop")

	sat, err := r.saturate(src, satDur, 0)
	if err != nil {
		return 0, err
	}
	st := r.eng.Stats()
	if err := waitAlarms(r.col, st.AlarmsRaised-raised0, 30*time.Second); err != nil {
		return 0, err
	}
	progress("saturation")
	attempted := r.sent
	countFailures(rep, r.sent, st)
	rep.Sessions = st.SessionsLive

	// Session memory: the settled heap the engine's sessions hold, which
	// closing the engine releases.
	accounted := r.eng.MemBytes()
	col := r.col
	h1 := heapSettled()
	r.close()
	r = nil
	h2 := heapSettled()
	sessBytes := float64(h1) - float64(h2)
	m.set("mem_per_session_B", sessBytes/float64(st.SessionsLive))

	m.set("events_per_s", sat.rate)
	m.set("cpu_us_per_event", sat.cpuPerEvent)
	rep.SatRates, rep.SatCPU = sat.rates, sat.cpus
	if err := latencyMetrics(m, rep, col, ol); err != nil {
		return 0, err
	}
	var record []actionlog.Event
	if plan != nil {
		record = plan.record
	} else {
		record = gen.record
	}
	if rep.Mismatches, err = checkAlarms(mod.det, mod.mcfg, record, skip, col.alarms); err != nil {
		return 0, err
	}
	rep.CheckedAlarms = countSampled(col.alarms)
	progress("output check")
	m.set("alarm.rate", float64(st.AlarmsRaised)/float64(st.EventsProcessed))
	m.set("core.engine_events_per_s", m.values["events_per_s"])
	m.set("core.mem_accounting_ratio", float64(accounted)/sessBytes)
	inProcessLayers(m, sat)

	if o.trace {
		// The same inputs, driven serially.
		wi := &walkInput{det: mod.det, mcfg: mod.mcfg, scoreBatch: scoreBatch, compactPrefill: plan != nil}
		if plan != nil {
			p, err := newResidentPlan(in, w.population, o.seed+30)
			if err != nil {
				return 0, err
			}
			wi.prefill = p.fill()
			rp := planRounds(p, w.walk)
			for i, pl := range rp.evs {
				wi.events = append(wi.events, p.event(pl))
				if rp.ends[i] {
					wi.roundEnds = append(wi.roundEnds, i)
				}
			}
		} else {
			g := newStreamGen('o', in.base, w.slots, o.seed+20)
			wi.prefill = firstEvents(g, w.slots*warmActions)
			wi.events = firstEvents(g, w.walk)
		}
		if err := walkLayers(m, rep, w, wi); err != nil {
			return 0, err
		}
	}
	return attempted, nil
}

// phases splits the measured seconds between the open loop and
// saturation.
func phases(w *workload, seconds int) (open, sat time.Duration) {
	d := time.Duration(seconds) * time.Second
	open = time.Duration(float64(d) * w.openShare)
	return open, d - open
}

// firstEvents returns a generator's first n events.
func firstEvents(gen *streamGen, n int) []actionlog.Event {
	out := make([]actionlog.Event, n)
	for i := range out {
		out[i], _ = gen.nextEvent()
	}
	return out
}

func countSampled(alarms []alarmRec) int {
	n := 0
	for _, a := range alarms {
		if sampled(a.session) {
			n++
		}
	}
	return n
}

// inProcessLayers sets the metrics of an in-process closed loop: time
// the producer spent blocked in SubmitBatch, and the runtime's
// allocation and GC counters over the phase.
func inProcessLayers(m *measurements, s inSaturation) {
	m.set("core.submit_block_frac", s.blocked.Seconds()/s.wall.Seconds())
	p99, _ := tail(s.submitUs, 99)
	m.set("core.submit_us.p99", p99)
	m.set("runtime.allocs_per_event", (s.rt1.allocs-s.rt0.allocs)/float64(s.events))
	if cpu := s.rt1.totalCPU - s.rt0.totalCPU; cpu > 0 {
		m.set("runtime.gc_cpu_frac", (s.rt1.gcCPU-s.rt0.gcCPU)/cpu)
	}
}

// walkLayers runs the traced walk and the same walk untraced, and sets
// the per-layer metrics from the traced walk's self times.
func walkLayers(m *measurements, rep *report, w *workload, in *walkInput) error {
	wt, err := newWalker(in, true)
	if err != nil {
		return err
	}
	ts, err := wt.run()
	if err != nil {
		return err
	}
	wt = nil
	runtime.GC() // the traced walk's state is garbage; do not bill its collection to the untraced walk
	wu, err := newWalker(in, false)
	if err != nil {
		return err
	}
	us, err := wu.run()
	if err != nil {
		return err
	}
	wu = nil
	per := func(l layer) float64 {
		if ts.calls[l] == 0 {
			return 0
		}
		return float64(ts.self[l]) / float64(ts.calls[l])
	}
	m.set("core.staging_ns", float64(ts.self[layerStaging])/float64(ts.events))
	for _, l := range []layer{layerIntern, layerMonitorNew, layerRehydrate, layerStageVote, layerStageFrozen, layerFinish, layerEncode, layerCompact} {
		m.set(layerNames[l]+"_ns", per(l))
	}
	if ts.streams > 0 {
		m.set("scorer.advance_ns", float64(ts.self[layerAdvance])/float64(ts.streams))
		m.set("scorer.wave_fill", float64(ts.streams)/float64(ts.calls[layerAdvance])/float64(in.scoreBatch))
	}
	if ts.calls[layerCompact] > 0 {
		m.set("core.snapshot_B", float64(ts.snapBytes)/float64(ts.calls[layerCompact]))
	}
	wall := float64(ts.wall.Nanoseconds())
	rep.WalkShare = map[string]float64{}
	var covered float64
	for l := layerStaging; l < numLayers; l++ {
		rep.WalkShare[layerNames[l]] = float64(ts.self[l]) / wall
		if l != layerStaging {
			covered += float64(ts.self[l])
		}
	}
	m.set("trace.coverage", covered/wall)
	m.set("trace.overhead_frac", (wall-float64(us.wall.Nanoseconds()))/float64(us.wall.Nanoseconds()))

	routeNs, err := routeSidePass(in.det, in.prefill, in.events)
	if err != nil {
		return err
	}
	m.set("ocsvm.route_ns", routeNs)
	sv := 0
	for _, c := range in.det.Clusters() {
		sv += c.Router.SupportVectorCount()
	}
	m.set("ocsvm.kernel_evals_per_event", float64(sv)*float64(ts.voteEvs)/float64(ts.events))
	if w.backend == lm.BackendLSTM && ts.streams > 0 {
		// Computed from tensor sizes, not counted: per stream advanced,
		// the recurrent GEMM (4H x H), the output GEMM (V x H), and gate
		// and softmax element work. Bytes are the two weight matrices,
		// read once per AdvanceBatch call and shared by its streams, plus
		// each stream's state, input column, logits and distribution.
		h, v := float64(lstmHidden), float64(in.det.Vocabulary().Size())
		perCall := float64(ts.streams) / float64(ts.calls[layerAdvance])
		m.set("nn.flops_per_event", 8*h*h+2*h*v+17*h+4*v)
		m.set("nn.bytes_per_event", (4*h*h+h*v)*8/perCall+(12*h+2*v)*8)
	}
	return nil
}
