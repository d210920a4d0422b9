package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/scorer"
)

// layer names what a span times: a call into one public function, or
// the walk's own staging. The walk calls them in the engine's order:
// intern → monitor creation or rehydration → stage → fused advance →
// finish → alarm encode → compaction.
type layer uint8

const (
	layerWalk layer = iota // root span: the whole walk
	// layerStaging is the walk's own session lookup and wave grouping:
	// the bookkeeping core.Engine does around the calls below. It is not
	// a call into the program, so trace.coverage leaves it out.
	layerStaging
	layerIntern
	layerMonitorNew
	layerRehydrate
	layerStageVote
	layerStageFrozen
	layerAdvance
	layerFinish
	layerEncode
	layerCompact
	numLayers
)

var layerNames = [numLayers]string{
	"walk", "core.staging", "actionlog.intern", "core.monitor_new", "core.rehydrate",
	"core.stage_vote", "core.stage_frozen", "scorer.advance", "core.finish",
	"alarm.encode", "core.compact",
}

// span is one timed call. Times are nanoseconds since the walk started;
// parent indexes the enclosing span (-1 for the root); event is the
// index of the event the call served (-1 for calls serving several).
type span struct {
	layer      layer
	start, end int64
	parent     int32
	event      int64
}

// tracer keeps spans in memory for the length of a walk. Spans are laid
// end to end: each runs from the end of the previous one (or the last
// mark) to the clock reading that ends it, so one clock read bounds two
// spans and the walk pays one read per call. The walk places its
// staging spans so that no call's span absorbs the walk's own
// bookkeeping. With on false the tracer records nothing and reads no
// clock, which gives the untraced walk the overhead is measured
// against.
type tracer struct {
	on    bool
	base  time.Time
	last  int64
	spans []span
}

// mark restarts the clock: time since the previous span is left to the
// root.
func (t *tracer) mark() {
	if t.on {
		t.last = int64(time.Since(t.base))
	}
}

// lap records a span of layer l from the previous span's end to now.
func (t *tracer) lap(l layer, event int64) {
	if t.on {
		now := int64(time.Since(t.base))
		t.spans = append(t.spans, span{layer: l, start: t.last, end: now, parent: 0, event: event})
		t.last = now
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may nest or overlap
// each other; covered time is the union of their intervals clipped to
// the parent, so no instant is subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start
		iv := children[int32(i)]
		if len(iv) == 0 {
			continue
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.start), min(c[1], s.end)
			if hi <= lo {
				continue
			}
			if lo > curE {
				flush()
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		flush()
		out[i] -= covered
	}
	return out
}

// walkInput is one workload's traced run: the same detector, monitor
// configuration and events as the untraced run, driven serially.
type walkInput struct {
	det        *core.Detector
	mcfg       core.MonitorConfig
	scoreBatch int
	// prefill is played untraced before the walk: the warm-up of a
	// stream, or, compacted, the resident population a revisit walk
	// starts from.
	prefill        []actionlog.Event
	compactPrefill bool
	events         []actionlog.Event
	// roundEnds lists event indices after which every live session is
	// compacted (Engine.Compact between revisit rounds).
	roundEnds []int
}

// walkStats is what one walk measured.
type walkStats struct {
	events    int
	wall      time.Duration
	self      [numLayers]int64 // summed self time per layer
	calls     [numLayers]int64
	streams   int64 // streams advanced across all AdvanceBatch calls
	voteEvs   int64
	alarms    int64
	snapBytes int64 // summed SessionSnapshot.MemSize at compaction
}

type walkSession struct {
	mon      *core.SessionMonitor
	snap     *core.SessionSnapshot
	waveMark int
}

type staged struct {
	ev   int
	sess *walkSession
	sc   scorer.Scorer
	st   scorer.Stream
	idx  int
	lik  float64
}

// maxWave is core.Engine's bound on a shard's staged wave.
const maxWave = 1024

// walker holds a walk's state. It stages events into waves the way a
// core.Engine shard does — a wave ends when a session repeats or at
// maxWave events — and advances each wave grouped by sequence model in
// chunks of at most scoreBatch streams.
type walker struct {
	in       *walkInput
	t        tracer
	interner *actionlog.Interner
	sessions map[string]*walkSession
	live     []*walkSession
	wave     []staged
	waveID   int
	vote     int
	st       walkStats
	actions  [][]byte
	events   []actionlog.Event
	// Reused flush buffers.
	group   []int
	done    []bool
	streams []scorer.Stream
	toks    []int
	liks    []float64
}

func newWalker(in *walkInput, traced bool) (*walker, error) {
	w := &walker{
		in:       in,
		interner: actionlog.NewInterner(in.det.Vocabulary()),
		sessions: make(map[string]*walkSession),
		vote:     in.det.Config().RouteVoteActions,
		waveID:   1,
	}
	if err := w.play(in.prefill, actionBytes(in.prefill), nil); err != nil {
		return nil, err
	}
	if in.compactPrefill {
		if err := w.compactAll(); err != nil {
			return nil, err
		}
	}
	w.st = walkStats{}
	w.actions = actionBytes(in.events)
	w.t.on = traced
	if traced {
		// About eight spans per event; growing the slice mid-walk would
		// copy it inside the timed region.
		w.t.spans = make([]span, 0, 8*len(in.events)+1)
	}
	return w, nil
}

// run walks the events and sums the traced spans' self times per layer.
func (w *walker) run() (walkStats, error) {
	w.t.base = time.Now()
	w.t.spans = append(w.t.spans[:0], span{layer: layerWalk, parent: -1, event: -1})
	w.t.mark()
	t0 := time.Now()
	if err := w.play(w.in.events, w.actions, w.in.roundEnds); err != nil {
		return walkStats{}, err
	}
	w.st.wall = time.Since(t0)
	w.st.events = len(w.in.events)
	if w.t.on {
		w.t.spans[0].end = int64(time.Since(w.t.base))
		self := selfTimes(w.t.spans)
		for i, s := range w.t.spans {
			w.st.self[s.layer] += self[i]
			w.st.calls[s.layer]++
		}
	}
	return w.st, nil
}

// actionBytes returns the events' action names as the byte slices
// InternBytes reads, as a wire parser holds them.
func actionBytes(events []actionlog.Event) [][]byte {
	out := make([][]byte, len(events))
	for i := range events {
		out[i] = []byte(events[i].Action)
	}
	return out
}

func (w *walker) play(events []actionlog.Event, actions [][]byte, roundEnds []int) error {
	w.events = events
	w.t.mark()
	r := 0
	vocab := w.in.det.Vocabulary().Size()
	for i := range events {
		ev := &events[i]
		tok := w.interner.InternBytes(actions[i])
		w.t.lap(layerIntern, int64(i))
		if tok < 0 || int(tok) >= vocab {
			return fmt.Errorf("walk: event %d: action %q outside the model vocabulary", i, ev.Action)
		}
		sess := w.sessions[ev.SessionID]
		repeat := sess != nil && sess.waveMark == w.waveID
		w.t.lap(layerStaging, int64(i))
		if repeat {
			if err := w.flush(); err != nil {
				return err
			}
		}
		switch {
		case sess == nil:
			mon, err := w.in.det.NewSessionMonitor(w.in.mcfg)
			w.t.lap(layerMonitorNew, int64(i))
			if err != nil {
				return err
			}
			sess = &walkSession{mon: mon}
			w.sessions[ev.SessionID] = sess
			w.live = append(w.live, sess)
			w.t.lap(layerStaging, int64(i))
		case sess.snap != nil:
			mon, err := sess.snap.Rehydrate()
			w.t.lap(layerRehydrate, int64(i))
			if err != nil {
				return err
			}
			sess.mon, sess.snap = mon, nil
			w.live = append(w.live, sess)
			w.t.lap(layerStaging, int64(i))
		}
		voting := sess.mon.Position() < w.vote
		sc, st, err := sess.mon.StageToken(int(tok))
		if voting {
			w.t.lap(layerStageVote, int64(i))
			w.st.voteEvs++
		} else {
			w.t.lap(layerStageFrozen, int64(i))
		}
		if err != nil {
			return fmt.Errorf("walk: stage event %d: %w", i, err)
		}
		sess.waveMark = w.waveID
		w.wave = append(w.wave, staged{ev: i, sess: sess, sc: sc, st: st, idx: int(tok)})
		full := len(w.wave) >= maxWave
		roundEnd := r < len(roundEnds) && roundEnds[r] == i
		w.t.lap(layerStaging, int64(i))
		if full || roundEnd {
			if err := w.flush(); err != nil {
				return err
			}
		}
		if roundEnd {
			r++
			if err := w.compactAll(); err != nil {
				return err
			}
		}
	}
	return w.flush()
}

// flush advances the staged wave grouped by sequence model, in chunks
// of at most scoreBatch streams, then finishes each event in staged
// order and encodes its alarms.
func (w *walker) flush() error {
	if len(w.wave) == 0 {
		return nil
	}
	w.done = w.done[:0]
	for range w.wave {
		w.done = append(w.done, false)
	}
	for i := range w.wave {
		if w.done[i] {
			continue
		}
		w.group = w.group[:0]
		for j := i; j < len(w.wave); j++ {
			if !w.done[j] && w.wave[j].sc == w.wave[i].sc {
				w.group = append(w.group, j)
				w.done[j] = true
			}
		}
		for off := 0; off < len(w.group); off += w.in.scoreBatch {
			chunk := w.group[off:min(off+w.in.scoreBatch, len(w.group))]
			w.streams, w.toks, w.liks = w.streams[:0], w.toks[:0], w.liks[:0]
			for _, j := range chunk {
				w.streams = append(w.streams, w.wave[j].st)
				w.toks = append(w.toks, w.wave[j].idx)
				w.liks = append(w.liks, 0)
			}
			w.t.lap(layerStaging, -1)
			err := scorer.AdvanceBatch(w.wave[i].sc, w.streams, w.toks, w.liks)
			w.t.lap(layerAdvance, -1)
			if err != nil {
				return fmt.Errorf("walk: advance: %w", err)
			}
			w.st.streams += int64(len(chunk))
			for k, j := range chunk {
				w.wave[j].lik = w.liks[k]
			}
		}
	}
	w.t.lap(layerStaging, -1)
	for _, s := range w.wave {
		step := s.sess.mon.FinishToken(s.idx, s.lik)
		w.t.lap(layerFinish, int64(s.ev))
		for _, kind := range step.Alarms {
			ev := &w.events[s.ev]
			_, err := json.Marshal(core.Alarm{
				Time: ev.Time, SessionID: ev.SessionID, User: ev.User, Kind: kind.String(),
				Position: step.Position, Cluster: step.Cluster, ModelVersion: 1, Likelihood: step.Smoothed,
			})
			w.t.lap(layerEncode, int64(s.ev))
			if err != nil {
				return err
			}
			w.st.alarms++
		}
	}
	clear(w.wave)
	w.wave = w.wave[:0]
	w.waveID++
	w.t.lap(layerStaging, -1)
	return nil
}

// compactAll compacts every live session that is past its routing vote,
// as Engine.Compact does.
func (w *walker) compactAll() error {
	keep := w.live[:0]
	w.t.mark()
	for _, sess := range w.live {
		if !sess.mon.Compactable() {
			keep = append(keep, sess)
			continue
		}
		snap, err := sess.mon.Compact()
		w.t.lap(layerCompact, -1)
		if err != nil {
			return err
		}
		w.st.snapBytes += int64(snap.MemSize())
		sess.snap, sess.mon = snap, nil
	}
	clear(w.live[len(keep):])
	w.live = keep
	w.t.lap(layerStaging, -1)
	return nil
}

// routeSidePass times the routing layer alone: for every walk event
// inside its session's vote window, the featurizer prefix update plus
// one ScoreSparse per cluster. Prefill events advance the sessions'
// prefixes untimed. It returns the mean nanoseconds per vote event.
func routeSidePass(det *core.Detector, prefill, events []actionlog.Event) (float64, error) {
	vote := det.Config().RouteVoteActions
	type prefix struct {
		n  int
		ps interface {
			Observe(int) ([]float64, error)
			Support() []int
		}
	}
	streams := make(map[string]*prefix)
	clusters := det.Clusters()
	var total time.Duration
	n := 0
	for i, ev := range append(prefill[:len(prefill):len(prefill)], events...) {
		timed := i >= len(prefill)
		p := streams[ev.SessionID]
		if p == nil {
			p = &prefix{ps: det.Featurizer().Stream()}
			streams[ev.SessionID] = p
		}
		if p.n >= vote {
			continue
		}
		p.n++
		tok := det.Token(ev.Action)
		if !timed {
			if _, err := p.ps.Observe(tok); err != nil {
				return 0, err
			}
			continue
		}
		t0 := time.Now()
		x, err := p.ps.Observe(tok)
		if err != nil {
			return 0, err
		}
		support := p.ps.Support()
		for i := range clusters {
			if _, err := clusters[i].Router.ScoreSparse(x, support); err != nil {
				return 0, err
			}
		}
		total += time.Since(t0)
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total.Nanoseconds()) / float64(n), nil
}
