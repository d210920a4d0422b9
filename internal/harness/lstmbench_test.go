package harness

import (
	"testing"

	"misusedetect/internal/lm"
)

// TestBenchLSTM smoke-tests the micro-batch bench: one result per
// ScoreBatch, sane throughput, and a populated batch speedup.
func TestBenchLSTM(t *testing.T) {
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := BenchLSTM(tr, LSTMBenchOptions{
		ScoreBatches: []int{1, 16},
		Events:       2000,
		Concurrency:  64,
		Hidden:       8,
		Epochs:       1,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 2 {
		t.Fatalf("results = %d, want 2 (one per ScoreBatch)", len(report.Results))
	}
	for _, res := range report.Results {
		if res.EventsPerSec <= 0 || res.Events != 2000 {
			t.Errorf("batch=%d: events/sec %.1f events %d", res.ScoreBatch, res.EventsPerSec, res.Events)
		}
		if res.Sessions < 64 {
			t.Errorf("batch=%d: %d sessions interleaved, want >= 64", res.ScoreBatch, res.Sessions)
		}
	}
	if report.BatchSpeedup <= 0 {
		t.Errorf("BatchSpeedup = %.3f, want > 0", report.BatchSpeedup)
	}
}

// TestEvalCorpusLSTMAUCAnchor pins the detection quality of the lstm
// backend on the corpus eval split.
func TestEvalCorpusLSTMAUCAnchor(t *testing.T) {
	tr, err := CorpusTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	opt := EvalOptions{Hidden: 16, Epochs: 4, Seed: 11}
	det, err := trainDetector(tr, opt, lm.BackendLSTM)
	if err != nil {
		t.Fatal(err)
	}
	report, err := EvalDetector(det, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if report.AUC <= 0.6 {
		t.Errorf("lstm AUC %.3f <= 0.6, anchor is ~0.64", report.AUC)
	}
}
