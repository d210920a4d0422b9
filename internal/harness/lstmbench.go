package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
	"misusedetect/internal/lm"
)

// LSTMBenchOptions tunes the LSTM micro-batch bench: one lstm detector
// is trained, then the same interleaved many-session stream is replayed
// through the engine once per ScoreBatch setting, so the measured ratio
// isolates the fused batched inference path from every other variable.
type LSTMBenchOptions struct {
	// ScoreBatches lists the engine ScoreBatch settings to sweep; nil
	// defaults to {1, 64}. 1 is the serial reference (each stream
	// advances alone), so the events/sec ratio of the largest setting
	// over it is the realized micro-batching win.
	ScoreBatches []int
	// Events is the stream volume per run; 0 defaults to 30000.
	Events int
	// Concurrency is the number of sessions interleaved round-robin in
	// the stream; 0 defaults to 512. Micro-batching feeds on concurrent
	// sessions: a shard can only fuse streams of sessions that are live
	// at the same time.
	Concurrency int
	// Shards is the engine shard count; 0 defaults to 1, which keeps the
	// whole wave on one shard and makes the ScoreBatch comparison free
	// of cross-shard scheduling noise.
	Shards int
	// SubmitBatch is the SubmitBatch chunk size used to feed the engine
	// (identical across runs); 0 defaults to 256.
	SubmitBatch int
	// QueueDepth is the per-shard queue depth (0 = engine default).
	QueueDepth int
	// Monitor is the alarm configuration; the zero value defaults to
	// core.DefaultMonitorConfig.
	Monitor core.MonitorConfig
	// Hidden, Epochs, Seed size and seed the trained model. Hidden
	// defaults to 256, the paper's LSTM width: at that size the
	// recurrent weights (2MB in f64) no longer fit low cache levels, so
	// the bench exercises the memory-bandwidth regime micro-batching
	// exists for. Small hidden sizes understate it.
	Hidden, Epochs int
	Seed           int64
}

func (o *LSTMBenchOptions) setDefaults() {
	if o.ScoreBatches == nil {
		o.ScoreBatches = []int{1, 64}
	}
	if o.Events == 0 {
		o.Events = 30000
	}
	if o.Concurrency == 0 {
		o.Concurrency = 512
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.SubmitBatch == 0 {
		o.SubmitBatch = 256
	}
	if o.Monitor.EWMAAlpha == 0 {
		o.Monitor = core.DefaultMonitorConfig()
	}
	if o.Hidden == 0 {
		o.Hidden = 256
	}
	if o.Epochs == 0 {
		o.Epochs = 2
	}
}

// LSTMBenchResult is one measured ScoreBatch run.
type LSTMBenchResult struct {
	ScoreBatch   int     `json:"score_batch"`
	Shards       int     `json:"shards"`
	Events       int     `json:"events"`
	Sessions     int     `json:"sessions"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	Alarms       uint64  `json:"alarms"`
}

// LSTMBenchReport is the machine-readable output of one misusectl bench
// -lstm run (the BENCH_lstm.json artifact).
type LSTMBenchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Hidden    int    `json:"hidden"`
	// Concurrency is the number of interleaved concurrent sessions in
	// the stream — the batching headroom the engine had to work with.
	Concurrency int               `json:"concurrency"`
	Results     []LSTMBenchResult `json:"results"`
	// BatchSpeedup is the events/sec ratio of the largest ScoreBatch run
	// over the ScoreBatch-1 run: the realized cross-session
	// micro-batching win, which CI gates. 0 when the sweep lacks
	// ScoreBatch 1 or a larger setting.
	BatchSpeedup float64 `json:"lstm_batch_speedup"`
}

// lstmBenchStream replicates the traffic's evaluation sessions until at
// least `concurrency` sessions exist whose total length covers `events`,
// then interleaves them round-robin — one action per live session per
// turn — and trims to exactly `events` events. Unlike benchStream's
// staggered-start flattening (which keeps each session's events mostly
// contiguous), the round-robin shape models N sessions in flight at
// once: the regime cross-session micro-batching exists for.
func lstmBenchStream(tr *Traffic, events, concurrency int) ([]actionlog.Event, int, error) {
	base := 0
	for _, l := range tr.EvalSessions() {
		base += l.Session.Len()
	}
	if base == 0 {
		return nil, 0, fmt.Errorf("harness: lstm bench needs a traffic evaluation split with events, got none")
	}
	var sessions []*actionlog.Session
	total := 0
	for rep := 0; len(sessions) < concurrency || total < events; rep++ {
		for _, l := range tr.EvalSessions() {
			s := l.Session.Clone()
			s.ID = fmt.Sprintf("%s-lb%03d", s.ID, rep)
			sessions = append(sessions, s)
			total += s.Len()
		}
	}
	start := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	out := make([]actionlog.Event, 0, events)
	seen := make(map[string]bool)
	for t := 0; len(out) < events; t++ {
		emitted := false
		for _, s := range sessions {
			if t >= s.Len() {
				continue
			}
			out = append(out, actionlog.Event{
				Time:      start.Add(time.Duration(len(out)) * time.Millisecond),
				User:      s.User,
				SessionID: s.ID,
				Action:    s.Actions[t],
			})
			seen[s.ID] = true
			emitted = true
			if len(out) == events {
				break
			}
		}
		if !emitted {
			break
		}
	}
	return out, len(seen), nil
}

// BenchLSTM measures the cross-session micro-batched LSTM serving path:
// it trains one lstm detector and replays the same interleaved stream
// once per ScoreBatch setting through a fresh engine, reporting
// throughput plus the batch speedup.
func BenchLSTM(tr *Traffic, opt LSTMBenchOptions) (*LSTMBenchReport, error) {
	opt.setDefaults()
	det, err := trainDetector(tr, EvalOptions{Hidden: opt.Hidden, Epochs: opt.Epochs, Seed: opt.Seed}, lm.BackendLSTM)
	if err != nil {
		return nil, fmt.Errorf("harness: lstm bench train: %w", err)
	}
	stream, sessions, err := lstmBenchStream(tr, opt.Events, opt.Concurrency)
	if err != nil {
		return nil, err
	}
	report := &LSTMBenchReport{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Hidden:      opt.Hidden,
		Concurrency: sessions,
	}
	var base, best float64
	maxBatch := 1
	for _, scoreBatch := range opt.ScoreBatches {
		res, err := benchLSTMRun(det, opt, stream, scoreBatch)
		if err != nil {
			return nil, fmt.Errorf("harness: lstm bench batch %d: %w", scoreBatch, err)
		}
		res.Sessions = sessions
		report.Results = append(report.Results, res)
		switch {
		case scoreBatch == 1:
			base = res.EventsPerSec
		case scoreBatch > maxBatch:
			maxBatch, best = scoreBatch, res.EventsPerSec
		}
	}
	if base > 0 {
		report.BatchSpeedup = best / base
	}
	return report, nil
}

func benchLSTMRun(det *core.Detector, opt LSTMBenchOptions, stream []actionlog.Event, scoreBatch int) (LSTMBenchResult, error) {
	engine, err := core.NewEngine(det, core.EngineConfig{
		Shards:     opt.Shards,
		QueueDepth: opt.QueueDepth,
		ScoreBatch: scoreBatch,
		Monitor:    opt.Monitor,
	})
	if err != nil {
		return LSTMBenchResult{}, err
	}
	defer engine.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	t0 := time.Now()
	for off := 0; off < len(stream); off += opt.SubmitBatch {
		end := off + opt.SubmitBatch
		if end > len(stream) {
			end = len(stream)
		}
		if err := engine.SubmitBatch(ctx, stream[off:end], nil); err != nil {
			return LSTMBenchResult{}, err
		}
	}
	if err := engine.Drain(ctx); err != nil {
		return LSTMBenchResult{}, err
	}
	wall := time.Since(t0)
	return LSTMBenchResult{
		ScoreBatch:   scoreBatch,
		Shards:       opt.Shards,
		Events:       len(stream),
		WallSeconds:  wall.Seconds(),
		EventsPerSec: float64(len(stream)) / wall.Seconds(),
		Alarms:       engine.Stats().AlarmsRaised,
	}, nil
}
