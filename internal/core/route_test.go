package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/baseline"
	"misusedetect/internal/corpus"
)

// scoreSparseVote is the routing vote as a per-action argmax of
// Model.ScoreSparse over the prefix features plus a tally: the reference
// the incremental ocsvm.Vote must reproduce.
func scoreSparseVote(t *testing.T, d *Detector, encoded []int) int {
	t.Helper()
	stream := d.Featurizer().Stream()
	votes := make([]int, d.ClusterCount())
	for _, a := range encoded[:min(len(encoded), d.Config().RouteVoteActions)] {
		x, err := stream.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		best, bestS := 0, math.Inf(-1)
		for i, c := range d.Clusters() {
			s, err := c.Router.ScoreSparse(x, stream.Support())
			if err != nil {
				t.Fatal(err)
			}
			if s > bestS {
				best, bestS = i, s
			}
		}
		votes[best]++
	}
	best := 0
	for i, v := range votes {
		if v > votes[best] {
			best = i
		}
	}
	return best
}

// TestRouteByVoteMatchesScoreSparseVote routes every corpus session both
// ways, through RouteByVote and through a SessionMonitor, and requires
// the cluster the ScoreSparse vote picks.
func TestRouteByVoteMatchesScoreSparseVote(t *testing.T) {
	det := trainCorpusNGram(t, 3)
	c, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.ActionSessions() {
		encoded, err := det.Vocabulary().Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		want := scoreSparseVote(t, det, encoded)
		got, err := det.RouteByVote(encoded)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("session %s: RouteByVote %d, ScoreSparse vote %d", s.ID, got, want)
		}
		mon, err := det.NewSessionMonitor(DefaultMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range encoded {
			if _, err := mon.ObserveToken(a); err != nil {
				t.Fatal(err)
			}
		}
		if mon.Cluster() != want {
			t.Fatalf("session %s: monitor routed to %d, ScoreSparse vote %d", s.ID, mon.Cluster(), want)
		}
	}
}

// TestSessionMonitorMemSizeIndependentOfVocab trains the same two-cluster
// n-gram detector over an 8-action vocabulary and over the same actions
// padded with 800 unused ones: a session's accounted state, fresh and
// through its vote window, must be the same size under both.
func TestSessionMonitorMemSizeIndependentOfVocab(t *testing.T) {
	small, sessions := testCorpus(t, 20)
	names := small.Actions()
	for i := 0; i < 800; i++ {
		names = append(names, fmt.Sprintf("pad-%03d", i))
	}
	large, err := actionlog.NewVocabulary(names)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := GroundTruthClustering(sessions, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mons []*SessionMonitor
	for _, vocab := range []*actionlog.Vocabulary{small, large} {
		cfg := testConfig(vocab.Size())
		cfg.Backend = baseline.BackendNGram
		cfg.OCSVM.Gamma = 0.25 // the auto gamma would depend on the vocabulary
		det, err := TrainDetector(cfg, vocab, clusters, nil)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := det.NewSessionMonitor(DefaultMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		mons = append(mons, mon)
	}
	probe := sessions[0].Actions
	for step := 0; ; step++ {
		if a, b := mons[0].MemSize(), mons[1].MemSize(); a != b {
			t.Fatalf("after %d actions: MemSize %d over %d actions, %d over %d", step, a, small.Size(), b, large.Size())
		}
		if step == len(probe) {
			break
		}
		for _, mon := range mons {
			observeName(t, mon.d, mon, probe[step])
		}
	}
}

// TestEngineLogQuotesSessionID submits an event whose client-supplied
// session ID carries a newline: the log line must stay one line, with
// the ID quoted.
func TestEngineLogQuotesSessionID(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	eng, err := NewEngine(smallNGramDetector(t), EngineConfig{
		Shards:  1,
		Monitor: DefaultMonitorConfig(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	id := "s-1\nFORGED alarm session=s-2"
	ctx := context.Background()
	if err := eng.Submit(ctx, actionlog.Event{SessionID: id, User: "u", Action: "not-an-action", Time: time.Now()}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("unknown action was not logged")
	}
	for _, l := range lines {
		if strings.Contains(l, "\n") {
			t.Fatalf("log line carries a raw newline: %q", l)
		}
		if !strings.Contains(l, strconv.Quote(id)) {
			t.Fatalf("log line %q does not carry the quoted session ID", l)
		}
	}
}

// TestLoadGenerationRejectsFeatureMode refuses a generation whose
// manifest names a feature mode other than counts, with an error that
// says so.
func TestLoadGenerationRejectsFeatureMode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "model")
	saveTestModel(t, dir)
	rewriteManifest(t, dir, func(man map[string]any) { man["feature_mode"] = 2 })
	_, _, err := LoadGeneration(dir)
	if err == nil {
		t.Fatal("LoadGeneration accepted feature mode 2")
	}
	if !strings.Contains(err.Error(), "unknown feature mode 2") {
		t.Fatalf("error %q does not name the feature mode", err)
	}
}
