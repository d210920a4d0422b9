package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// frameEvents is the number of events per {"batch":[...]} frame in the
// saturation phase.
const frameEvents = 64

// statusInterval is how often the open loop asks for the daemon's
// status, which samples its memory and sessions.
const statusInterval = 50 * time.Millisecond

// appendEvent appends one event as the JSON object misused parses.
func appendEvent(b []byte, ev *actionlog.Event) []byte {
	b = append(b, `{"time":"`...)
	b = ev.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","user":"`...)
	b = append(b, ev.User...)
	b = append(b, `","session_id":"`...)
	b = append(b, ev.SessionID...)
	b = append(b, `","action":"`...)
	b = append(b, ev.Action...)
	return append(b, `"}`...)
}

// alarmRec is one received alarm, reduced to what the checks compare.
type alarmRec struct {
	session  string
	position int
	kind     string
	cluster  int
	likBits  uint64
}

// latencyWindows is how many equal slices of the open-loop schedule the
// tail latency is taken over; the reported tail is their median, so one
// stall on a shared host moves it less than it moves a single tail.
const latencyWindows = 5

// olPhase is an open-loop phase as the alarm reader sees it: when it
// started, its schedule, and which event is which.
type olPhase struct {
	start time.Duration // since the collector's epoch
	due   dueTable
	sch   schedule
	n     int // events in the phase
}

// latency matches an alarm received at recv (since the collector's
// epoch) to its event by (session, position) and returns the alarm's
// latency from the event's due time, in milliseconds, and the slice of
// the schedule the event was due in.
func (p *olPhase) latency(session string, position int, recv time.Duration) (window int, ms float64, ok bool) {
	k, ok := dueKey(session, position)
	if !ok {
		return 0, 0, false
	}
	i, ok := p.due[k]
	if !ok {
		return 0, 0, false
	}
	window = min(int(i)*latencyWindows/max(p.n, 1), latencyWindows-1)
	return window, float64((recv - p.start - p.sch.due(int(i))).Nanoseconds()) / 1e6, true
}

// collector is the alarm reader's state. The reader goroutine owns
// alarms, lat, unmatched and maxLive until done is closed; count, phase
// and the status fields are shared.
type collector struct {
	epoch  time.Time
	alarms []alarmRec // the output check's sampled sessions
	// phase is set while an open-loop phase runs; its alarms' latencies
	// go to lat by schedule window, computed as they arrive so that no
	// per-alarm record is kept.
	phase     atomic.Pointer[olPhase]
	lat       [latencyWindows][]float64
	unmatched int
	count     atomic.Int64
	statusSeq atomic.Int64
	last      atomic.Pointer[core.EngineStats]
	maxLive   uint64
	// memPid, set with memRSS0 before the reader starts, is the daemon
	// whose resident memory is sampled at each status reply while
	// sampleMem is set; memPerSession holds resident bytes above memRSS0
	// per resident session, one value per sample.
	memPid        int
	memRSS0       int64
	sampleMem     atomic.Bool
	memPerSession []float64
	err           error
	done          chan struct{}
}

func newCollector() *collector {
	return &collector{epoch: time.Now(), done: make(chan struct{})}
}

// add records an alarm received at recv: its latency during an
// open-loop phase, its details when the output check samples it.
func (c *collector) add(a core.Alarm, recv time.Duration) {
	if p := c.phase.Load(); p != nil {
		if w, ms, ok := p.latency(a.SessionID, a.Position, recv); ok {
			c.lat[w] = append(c.lat[w], ms)
		} else {
			c.unmatched++
		}
	}
	if sampled(a.SessionID) {
		c.alarms = append(c.alarms, alarmRec{
			session: a.SessionID, position: a.Position, kind: a.Kind,
			cluster: a.Cluster, likBits: math.Float64bits(a.Likelihood),
		})
	}
	c.count.Add(1)
}

// readWire is the wire alarm reader: alarm lines and status replies
// share the connection, told apart by their keys.
func (c *collector) readWire(r *bufio.Reader) {
	defer close(c.done)
	var line struct {
		core.Alarm
		Status *core.EngineStats `json:"status"`
		Error  string            `json:"error"`
	}
	for {
		b, err := r.ReadSlice('\n')
		if err != nil {
			c.err = err
			return
		}
		recv := time.Since(c.epoch)
		line.Alarm, line.Status, line.Error = core.Alarm{}, nil, ""
		if err := json.Unmarshal(b, &line); err != nil {
			c.err = fmt.Errorf("bad line from daemon %q: %w", b, err)
			return
		}
		switch {
		case line.Error != "":
			c.err = fmt.Errorf("daemon error: %s", line.Error)
			return
		case line.Status != nil:
			st := *line.Status
			c.maxLive = max(c.maxLive, st.SessionsLive)
			if c.sampleMem.Load() && st.SessionsLive > 0 {
				if rss, err := procStatusBytes(c.memPid, "VmRSS:"); err == nil {
					c.memPerSession = append(c.memPerSession, float64(rss-c.memRSS0)/float64(st.SessionsLive))
				}
			}
			c.last.Store(&st)
			c.statusSeq.Add(1)
		default:
			c.add(line.Alarm, recv)
		}
	}
}

// wireClient is the single-connection load generator: the calling
// goroutine sends, one reader goroutine collects.
type wireClient struct {
	d     *daemon
	col   *collector
	polls int64
	sent  int
}

func newWireClient(d *daemon) *wireClient {
	c := &wireClient{d: d, col: newCollector()}
	c.col.memPid, c.col.memRSS0 = d.cmd.Process.Pid, d.readyRSS
	go c.col.readWire(d.r)
	return c
}

// status asks the daemon for its counters and waits for the reply.
func (c *wireClient) status() (core.EngineStats, error) {
	if _, err := c.d.conn.Write([]byte("{\"cmd\":\"status\"}\n")); err != nil {
		return core.EngineStats{}, err
	}
	c.polls++
	deadline := time.Now().Add(30 * time.Second)
	for c.col.statusSeq.Load() < c.polls {
		select {
		case <-c.col.done:
			return core.EngineStats{}, fmt.Errorf("alarm reader stopped: %v", c.col.err)
		default:
		}
		if time.Now().After(deadline) {
			return core.EngineStats{}, fmt.Errorf("no status reply within 30s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return *c.col.last.Load(), nil
}

// waitProcessed polls until the daemon has processed every event sent
// and returns the final counters.
func (c *wireClient) waitProcessed(timeout time.Duration) (core.EngineStats, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.status()
		if err != nil {
			return st, err
		}
		if st.EventsProcessed >= uint64(c.sent) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("daemon processed %d of %d events within %v", st.EventsProcessed, c.sent, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// saturation is the closed loop: one sender writes 64-event frames as
// fast as TCP backpressure allows, in back-to-back slices; each slice's
// clock stops when the processed counter reaches the number of events
// sent.
type saturation struct {
	events    int
	wall      time.Duration
	cpu       time.Duration
	gcs       int
	frameUs   []float64
	batches   uint64 // engine batch counter delta
	submitted uint64
	// rate and cpuPerEvent are the medians over the phase's measured
	// slices, in events per second and microseconds; rates and cpus are
	// the slices'.
	rate, cpuPerEvent float64
	rates, cpus       []float64
	warmEvents        int // sent in the warm-up slices
}

// sliceFrames is the size of one wire saturation slice, in frames. A
// slice is encoded before its clock starts, so that while it is timed
// the sender only writes and the daemon has the CPUs the encoding would
// take; at about 300k events per second a slice lasts under a second.
const sliceFrames = 4096

// wireWarmShare is the share of a wire saturation phase spent warming
// up: the slices started in it are sent and checked but not measured,
// while the daemon's session population (sessions are evicted 1 s after
// their last event), heap and GC pacing move from the open loop's rate
// to saturation's.
const wireWarmShare = 0.3

// add folds one slice into the phase totals.
func (s *saturation) add(o saturation) {
	s.events += o.events
	s.wall += o.wall
	s.cpu += o.cpu
	s.gcs += o.gcs
	s.frameUs = append(s.frameUs, o.frameUs...)
	s.batches += o.batches
	s.submitted += o.submitted
}

// satFrames is one slice's encoded frames: frame i is
// buf[offs[i]:offs[i+1]].
type satFrames struct {
	buf  []byte
	offs []int
}

// encode fills f with the next sliceFrames frames of gen.
func (f *satFrames) encode(gen *streamGen) {
	f.buf, f.offs = f.buf[:0], append(f.offs[:0], 0)
	for i := 0; i < sliceFrames; i++ {
		f.buf = append(f.buf, `{"batch":[`...)
		for k := 0; k < frameEvents; k++ {
			if k > 0 {
				f.buf = append(f.buf, ',')
			}
			ev, _ := gen.nextEvent()
			f.buf = appendEvent(f.buf, &ev)
		}
		f.buf = append(f.buf, "]}\n"...)
		f.offs = append(f.offs, len(f.buf))
	}
}

// saturate runs slices until the phase has taken d; those started in
// its first wireWarmShare warm up.
func (c *wireClient) saturate(gen *streamGen, d time.Duration) (saturation, error) {
	var res saturation
	var f satFrames
	start := time.Now()
	warm := time.Duration(float64(d) * wireWarmShare)
	for len(res.rates) == 0 || time.Since(start) < d {
		warming := time.Since(start) < warm
		s, err := c.saturateSlice(gen, &f)
		if err != nil {
			return res, err
		}
		if warming {
			res.warmEvents += s.events
			continue
		}
		res.rates = append(res.rates, float64(s.events)/s.wall.Seconds())
		res.cpus = append(res.cpus, s.cpu.Seconds()*1e6/float64(s.events))
		res.add(s)
	}
	res.rate, res.cpuPerEvent = median(res.rates), median(res.cpus)
	return res, nil
}

func (c *wireClient) saturateSlice(gen *streamGen, f *satFrames) (saturation, error) {
	f.encode(gen)
	pid := c.d.cmd.Process.Pid
	st0, err := c.status()
	if err != nil {
		return saturation{}, err
	}
	gc0, err := gcCount(c.d.errPath)
	if err != nil {
		return saturation{}, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return saturation{}, err
	}
	res := saturation{frameUs: make([]float64, 0, sliceFrames)}
	start := time.Now()
	for i := 0; i < sliceFrames; i++ {
		t := time.Now()
		if _, err := c.d.conn.Write(f.buf[f.offs[i]:f.offs[i+1]]); err != nil {
			return saturation{}, err
		}
		res.frameUs = append(res.frameUs, float64(time.Since(t).Nanoseconds())/1e3)
	}
	res.events = sliceFrames * frameEvents
	c.sent += res.events
	st1, err := c.waitProcessed(60 * time.Second)
	if err != nil {
		return saturation{}, err
	}
	res.wall = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return saturation{}, err
	}
	gc1, err := gcCount(c.d.errPath)
	if err != nil {
		return saturation{}, err
	}
	res.cpu, res.gcs = cpu1-cpu0, gc1-gc0
	res.batches = st1.BatchesSubmitted - st0.BatchesSubmitted
	res.submitted = st1.EventsSubmitted - st0.EventsSubmitted
	return res, nil
}

// openLoop is the fixed-rate phase's outcome. The phase runs first and
// is drained, with every alarm received, before the saturation phase
// starts, so the alarms the collector times are exactly its alarms.
type openLoop struct {
	events int
	lagMs  []float64
}

// begin publishes the phase to the alarm reader at its start.
func (c *collector) begin(due dueTable, sch schedule, n int) {
	c.phase.Store(&olPhase{start: time.Since(c.epoch), due: due, sch: sch, n: n})
}

// end stops timing once every alarm of the phase has been received.
func (c *collector) end() { c.phase.Store(nil) }

// linePlan is the wire open loop's input: one JSON line per event,
// encoded before the clock starts.
type linePlan struct {
	lines []byte
	offs  []int // line i is lines[offs[i]:offs[i+1]]
	due   dueTable
}

func (l *linePlan) events() int { return len(l.offs) - 1 }

// planLines generates the phase's n events and their due-time keys.
func planLines(gen *streamGen, n int) *linePlan {
	l := &linePlan{offs: make([]int, 1, n+1), due: make(dueTable, n)}
	for i := 0; i < n; i++ {
		ev, pos := gen.nextEvent()
		l.lines = append(appendEvent(l.lines, &ev), '\n')
		l.offs = append(l.offs, len(l.lines))
		l.due.add(ev.SessionID, pos, i)
	}
	return l
}

// openLoop sends one JSON line per event on the schedule: every event
// already due is written at once, and the sender sleeps until the next
// is due. A stall delays sends but not due times, so the wait it
// imposes on later events counts in their alarm latency.
//
// Every statusInterval the sender also asks for the daemon's status,
// without awaiting the reply; over the phase's second half the reader
// samples the daemon's resident memory at each reply. The offered rate
// fixes the session population (sessions are evicted 1 s after their
// last event), so the population sampled does not depend on how fast
// the host runs, as it would in saturation.
func (c *wireClient) openLoop(l *linePlan, sch schedule) (openLoop, error) {
	n := l.events()
	res := openLoop{events: n, lagMs: make([]float64, 0, n)}
	start := time.Now()
	c.col.begin(l.due, sch, n)
	lastStatus := time.Duration(0)
	for i := 0; i < n; {
		now := time.Since(start)
		if now-lastStatus >= statusInterval {
			c.col.sampleMem.Store(i >= n/2)
			if _, err := c.d.conn.Write([]byte("{\"cmd\":\"status\"}\n")); err != nil {
				return res, err
			}
			c.polls++
			lastStatus = now
		}
		if next := sch.due(i); next > now {
			sleep(min(next-now, statusInterval))
			continue
		}
		j := i
		for j < n && sch.due(j) <= now {
			res.lagMs = append(res.lagMs, float64((now-sch.due(j)).Nanoseconds())/1e6)
			j++
		}
		if _, err := c.d.conn.Write(l.lines[l.offs[i]:l.offs[j]]); err != nil {
			return res, err
		}
		c.sent += j - i
		i = j
	}
	c.col.sampleMem.Store(false)
	return res, nil
}

// waitAlarms waits until the collector has counted want alarms.
func waitAlarms(col *collector, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for uint64(col.count.Load()) < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("received %d of %d alarms raised", col.count.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
