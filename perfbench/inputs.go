package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/corpus"
	"misusedetect/internal/logsim"
)

// inputs are everything a workload generates from its seed before the
// system sees anything: training and calibration sessions for the model,
// and the base sessions the event stream replays with fresh IDs.
type inputs struct {
	vocab   *actionlog.Vocabulary
	train   [][]*actionlog.Session
	holdout []*actionlog.Session // normal sessions: calibration only
	base    []*actionlog.Session // replayed by the stream
	misuse  [][]string           // engine_resident: action runs of misuse bursts
}

// holdoutPerCluster is how many of each corpus cluster's sessions are
// held out of training for calibration, as the repository's evaluation
// does.
const holdoutPerCluster = 2

// corpusInputs splits the embedded labelled corpus: each cluster's
// trailing sessions are held out for calibration, the rest train the
// cluster's models in a seeded order. The split is the same for every
// seed, so the calibrated floors, and with them the alarm rate, do not
// swing with the seed; the seeded order still reaches the OC-SVM and
// LSTM training, so each seed gives its own model files. The corpus's
// evaluation side (held-out normals, benign flash crowds, every
// labelled anomaly) is returned as stream bases.
func corpusInputs(rng *rand.Rand) (*inputs, error) {
	c, err := corpus.Load()
	if err != nil {
		return nil, err
	}
	vocab, err := actionlog.NewVocabulary(logsim.ActionNames())
	if err != nil {
		return nil, err
	}
	in := &inputs{vocab: vocab}
	for ci, g := range c.ByCluster() {
		if len(g) <= holdoutPerCluster+1 {
			return nil, fmt.Errorf("corpus cluster %d has %d sessions, too few to hold out %d", ci, len(g), holdoutPerCluster)
		}
		cut := len(g) - holdoutPerCluster
		train := append([]*actionlog.Session(nil), g[:cut]...)
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		in.train = append(in.train, train)
		in.holdout = append(in.holdout, g[cut:]...)
	}
	in.base = append(in.base, in.holdout...)
	kinds := make(map[string]string, len(c.Sessions))
	for _, s := range c.Sessions {
		kinds[s.ID] = s.Kind
	}
	for _, s := range c.ActionSessions() {
		if kinds[s.ID] != corpus.KindProfile {
			in.base = append(in.base, s)
		}
	}
	return in, nil
}

// makeInputs generates a workload's inputs from its seed. Every workload
// trains on the corpus split. The wire workload replays the corpus's
// evaluation side; the engine workloads replay simulated marathon
// sessions, with misuse injected as whole sessions (engine_lstm_long)
// or as runs for revisit bursts (engine_resident).
func makeInputs(w *workload, seed int64) (*inputs, error) {
	in, err := corpusInputs(rand.New(rand.NewSource(seed)))
	if err != nil || w.name == "wire_ngram_short" {
		return in, err
	}
	// Marathon sessions: every session gets the tail boost, so the
	// stream's sessions run far past the 15-action routing vote.
	long := logsim.ScaledConfig(seed+1, 50)
	long.TailBoostProb = 1
	lsim, err := logsim.Generate(long)
	if err != nil {
		return nil, err
	}
	for i, sc := range []logsim.MisuseScenario{logsim.MisuseMassDeletion, logsim.MisuseAccountFactory, logsim.MisuseCredentialSweep} {
		s, err := logsim.MisuseSession(sc, 6, seed+3+int64(i))
		if err != nil {
			return nil, err
		}
		in.misuse = append(in.misuse, s.Actions)
	}
	in.base = lsim.Sessions
	if w.name == "engine_lstm_long" {
		if in.base, _, err = logsim.InjectMisuse(lsim.Sessions, 24, seed+2); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// streamStart is the event-time origin of every generated stream.
var streamStart = time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)

// sampleEvery makes one session in sampleEvery part of the output check.
const sampleEvery = 16

// sessionID names the n-th session of a phase. The counter is part of
// the ID so that any goroutine can tell a sampled session from its ID.
func sessionID(phase byte, n int) string {
	return string(phase) + strconv.Itoa(n)
}

// sampled reports whether the session with this ID is in the output
// check's deterministic 1-in-sampleEvery sample.
func sampled(id string) bool {
	n, err := strconv.Atoi(id[1:])
	return err == nil && n%sampleEvery == 0
}

// streamGen interleaves replayed sessions: it keeps `slots` sessions
// open and emits one action of each open session per pass, visiting the
// slots in a fresh seeded order every pass, so many sessions are in
// flight and no session repeats within a pass. A finished session's
// slot takes the next base session, cycling through a seeded
// permutation, under a fresh ID.
type streamGen struct {
	phase  byte
	base   []*actionlog.Session
	rng    *rand.Rand
	perm   []int // base order of the current cycle
	next   int
	slots  []genSlot
	pass   []int // slot order of the current pass
	at     int
	n      int // events emitted
	nsess  int // sessions started
	record []actionlog.Event
}

type genSlot struct {
	id   string
	s    *actionlog.Session
	pos  int
	keep bool
}

func newStreamGen(phase byte, base []*actionlog.Session, slots int, seed int64) *streamGen {
	g := &streamGen{phase: phase, base: base, rng: rand.New(rand.NewSource(seed)), slots: make([]genSlot, slots)}
	for i := range g.slots {
		g.refill(i)
	}
	g.pass = make([]int, slots)
	g.at = slots
	return g
}

func (g *streamGen) refill(i int) {
	if g.next == len(g.perm) {
		g.perm = g.rng.Perm(len(g.base))
		g.next = 0
	}
	id := sessionID(g.phase, g.nsess)
	g.slots[i] = genSlot{id: id, s: g.base[g.perm[g.next]], keep: sampled(id)}
	g.next++
	g.nsess++
}

// nextEvent emits one event and reports its position within its session.
// Events of sampled sessions are appended to record.
func (g *streamGen) nextEvent() (actionlog.Event, int) {
	if g.at == len(g.pass) {
		for i := range g.pass {
			g.pass[i] = i
		}
		g.rng.Shuffle(len(g.pass), func(i, j int) { g.pass[i], g.pass[j] = g.pass[j], g.pass[i] })
		g.at = 0
	}
	i := g.pass[g.at]
	g.at++
	sl := &g.slots[i]
	ev := actionlog.Event{
		Time:      streamStart.Add(time.Duration(g.n) * time.Millisecond),
		User:      sl.s.User,
		SessionID: sl.id,
		Action:    sl.s.Actions[sl.pos],
	}
	pos := sl.pos
	sl.pos++
	g.n++
	if sl.keep {
		g.record = append(g.record, ev)
	}
	if sl.pos == sl.s.Len() {
		g.refill(i)
	}
	return ev, pos
}

// residentPlan drives engine_resident: a population of sessions, each
// replaying a marathon base session, is played past its routing vote,
// then revisited in rounds of short bursts. Its events are the same for
// every run of a seed. Rounds are planned compactly (no strings) and
// turned into events only as they are sent, so a long plan adds nothing
// for the garbage collector to scan.
type residentPlan struct {
	names  []string   // action names by vocabulary index
	base   [][]uint16 // action indices of each base session
	users  []string
	misuse [][]uint16
	rng    *rand.Rand
	ids    []string
	count  []int32 // events planned per resident session
	cursor []int32 // next base action per resident session
	order  []int   // resident indices, partially reshuffled per round
	record []actionlog.Event
	n      int // events made
}

// planned is one planned event: resident r's action, at position pos
// of its session.
type planned struct {
	r, pos int32
	act    uint16
}

const (
	residentFill  = 16   // actions per session before compaction: past the 15-action vote
	residentRound = 2000 // sessions revisited per round
	residentBurst = 4    // actions per revisit burst
	misuseShare   = 10   // one burst in misuseShare is a misuse burst
)

func newResidentPlan(in *inputs, population int, seed int64) (*residentPlan, error) {
	p := &residentPlan{
		names:  in.vocab.Actions(),
		rng:    rand.New(rand.NewSource(seed)),
		ids:    make([]string, population),
		count:  make([]int32, population),
		cursor: make([]int32, population),
		order:  make([]int, population),
	}
	encode := func(actions []string) ([]uint16, error) {
		out := make([]uint16, len(actions))
		for i, a := range actions {
			idx, err := in.vocab.Index(a)
			if err != nil {
				return nil, err
			}
			out[i] = uint16(idx)
		}
		return out, nil
	}
	for _, b := range in.base {
		toks, err := encode(b.Actions)
		if err != nil {
			return nil, err
		}
		p.base = append(p.base, toks)
		p.users = append(p.users, b.User)
	}
	for _, run := range in.misuse {
		toks, err := encode(run)
		if err != nil {
			return nil, err
		}
		p.misuse = append(p.misuse, toks)
	}
	for i := range p.order {
		p.order[i] = i
		p.ids[i] = sessionID('r', i)
	}
	return p, nil
}

// plan plans resident r's next event with action index act.
func (p *residentPlan) plan(r int, act uint16) planned {
	pl := planned{r: int32(r), pos: p.count[r], act: act}
	p.count[r]++
	return pl
}

// baseAction returns resident session r's next action of its base
// session, wrapping around at the end.
func (p *residentPlan) baseAction(r int) uint16 {
	b := p.base[r%len(p.base)]
	a := b[int(p.cursor[r])%len(b)]
	p.cursor[r]++
	return a
}

// event makes a planned event, in send order; events of sampled sessions
// are recorded for the output check.
func (p *residentPlan) event(pl planned) actionlog.Event {
	ev := actionlog.Event{
		Time:      streamStart.Add(time.Duration(p.n) * time.Millisecond),
		User:      p.users[int(pl.r)%len(p.users)],
		SessionID: p.ids[pl.r],
		Action:    p.names[pl.act],
	}
	p.n++
	if pl.r%sampleEvery == 0 {
		p.record = append(p.record, ev)
	}
	return ev
}

// fill returns the population's fill events, interleaved so that
// consecutive events belong to different sessions.
func (p *residentPlan) fill() []actionlog.Event {
	out := make([]actionlog.Event, 0, len(p.cursor)*residentFill)
	for k := 0; k < residentFill; k++ {
		for r := range p.cursor {
			out = append(out, p.event(p.plan(r, p.baseAction(r))))
		}
	}
	return out
}

// round plans one revisit round: residentRound distinct random
// residents, each with a burst of residentBurst actions, interleaved
// step by step. One burst in misuseShare replays a misuse run instead of
// the session's own behaviour.
func (p *residentPlan) round(out []planned) []planned {
	// A partial Fisher-Yates pass draws the round's residents in
	// O(residentRound), not O(population).
	for i := 0; i < residentRound; i++ {
		j := i + p.rng.Intn(len(p.order)-i)
		p.order[i], p.order[j] = p.order[j], p.order[i]
	}
	pick := p.order[:residentRound]
	var misuse [residentRound]int // 0 = own behaviour, else run index+1
	for i := range pick {
		if p.rng.Intn(misuseShare) == 0 {
			misuse[i] = 1 + p.rng.Intn(len(p.misuse))
		}
	}
	for k := 0; k < residentBurst; k++ {
		for i, r := range pick {
			var a uint16
			if m := misuse[i]; m > 0 {
				run := p.misuse[m-1]
				a = run[(int(p.cursor[r])+k)%len(run)]
			} else {
				a = p.baseAction(r)
			}
			out = append(out, p.plan(r, a))
		}
	}
	return out
}
