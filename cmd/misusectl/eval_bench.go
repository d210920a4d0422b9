package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"misusedetect/internal/core"
	"misusedetect/internal/harness"
)

// loadTraffic builds the labeled evaluation workload shared by eval and
// bench.
func loadTraffic(source string, holdout int, seed int64, divisor, random, misuse int) (*harness.Traffic, error) {
	switch source {
	case "corpus":
		return harness.CorpusTraffic(holdout)
	case "sim":
		return harness.SimTraffic(harness.SimConfig{
			Seed:           seed,
			Divisor:        divisor,
			RandomSessions: random,
			MisuseSessions: misuse,
		})
	default:
		return nil, fmt.Errorf("unknown traffic source %q (want corpus or sim)", source)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

func splitShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts given")
	}
	return out, nil
}

func cmdEval(args []string) error {
	fs := newFlagSet("eval")
	source := fs.String("source", "corpus", "traffic source: corpus (embedded) or sim (fresh logsim run)")
	holdout := fs.Int("holdout", 2, "held-out normal sessions per cluster (corpus source)")
	divisor := fs.Int("divisor", 100, "logsim corpus scale divisor (sim source)")
	random := fs.Int("random", 30, "random anomaly sessions (sim source)")
	misuse := fs.Int("misuse", 15, "scripted misuse sessions (sim source)")
	backends := fs.String("backends", "lstm,ngram,hmm", "comma-separated scorer backends to evaluate")
	modelDir := fs.String("model", "", "evaluate and calibrate an existing model directory instead of training per backend")
	fpr := fs.Float64("fpr", 0.05, "false-positive budget for calibration and the TPR operating point")
	hidden := fs.Int("hidden", 16, "LSTM hidden units")
	epochs := fs.Int("epochs", 4, "LSTM training epochs")
	shards := fs.Int("shards", 4, "engine shard count for the alarm-level replay")
	seed := fs.Int64("seed", 11, "training and simulation seed")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	minAUC := fs.Float64("min-auc", 0, "exit nonzero when any backend's AUC falls below this floor (CI gate)")
	thresholds := fs.String("thresholds", "", "write the calibrated monitor fragment to this path (single backend only)")
	addr := fs.String("addr", "", "replay against a live misused daemon at this address instead of in-process")
	timeout := fs.Duration("timeout", 2*time.Minute, "wire-mode replay deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := loadTraffic(*source, *holdout, *seed, *divisor, *random, *misuse)
	if err != nil {
		return err
	}

	if *addr != "" {
		// Wire mode observes alarms, not scores: there is no AUC to gate
		// on and no model in hand to calibrate, so accepting these flags
		// would silently disable the checks the caller asked for.
		if *minAUC != 0 {
			return fmt.Errorf("eval: -min-auc requires an in-process evaluation (drop -addr)")
		}
		if *thresholds != "" {
			return fmt.Errorf("eval: -thresholds requires an in-process evaluation (drop -addr)")
		}
		rep, err := harness.ReplayWire(*addr, tr.EvalSessions(), *timeout)
		if err != nil {
			return err
		}
		if *jsonOut {
			return json.NewEncoder(os.Stdout).Encode(rep)
		}
		fmt.Printf("wire replay against %s (backend %s, model v%d, %d shards)\n",
			rep.Addr, rep.Backend, rep.ModelVersion, rep.Shards)
		fmt.Printf("  events:          %d\n", rep.Events)
		fmt.Printf("  anomalies:       %d/%d detected", rep.DetectedAnomalies, rep.AnomalySessions)
		if rep.MeanTimeToDetection > 0 {
			fmt.Printf(" (mean time-to-detection %.1f actions)", rep.MeanTimeToDetection)
		}
		fmt.Println()
		for _, kind := range sortedIntKeys(rep.DetectedByKind) {
			fmt.Printf("    %-18s %d", kind, rep.DetectedByKind[kind])
			if ttd := rep.TTDByKind[kind]; ttd > 0 {
				fmt.Printf(" (mean TTD %.1f actions)", ttd)
			}
			fmt.Println()
		}
		fmt.Printf("  false alarms:    %d/%d normal sessions\n", rep.AlarmedNormals, rep.NormalSessions)
		for _, kind := range sortedIntKeys(rep.AlarmedNormalsByKind) {
			fmt.Printf("    %-18s %d\n", kind, rep.AlarmedNormalsByKind[kind])
		}
		return nil
	}

	opts := harness.EvalOptions{
		Backends:  splitBackends(*backends),
		FPRBudget: *fpr,
		Hidden:    *hidden,
		Epochs:    *epochs,
		Shards:    *shards,
		Seed:      *seed,
	}
	var report *harness.EvalReport
	if *modelDir != "" {
		// Evaluate the model a daemon would actually serve: thresholds
		// written below are calibrated for exactly these weights.
		det, err := core.LoadDetector(*modelDir)
		if err != nil {
			return err
		}
		br, err := harness.EvalDetector(det, tr, opts)
		if err != nil {
			return err
		}
		report = &harness.EvalReport{
			Source:          tr.Source,
			Vocabulary:      det.Vocabulary().Size(),
			ClusterCount:    det.ClusterCount(),
			TrainSessions:   tr.TrainCount(),
			HoldoutSessions: len(tr.Holdout),
			AnomalySessions: len(tr.Anomalies),
			FPRBudget:       opts.FPRBudget,
			Backends:        []harness.BackendReport{br},
		}
	} else {
		if *thresholds != "" && len(opts.Backends) != 1 {
			return fmt.Errorf("eval: -thresholds needs exactly one backend (or -model), got %d", len(opts.Backends))
		}
		if report, err = harness.Eval(tr, opts); err != nil {
			return err
		}
	}
	if *thresholds != "" {
		if err := core.SaveMonitorConfig(*thresholds, report.Backends[0].Calibrated); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote calibrated thresholds to %s\n", *thresholds)
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(report); err != nil {
			return err
		}
	} else {
		renderEvalReport(report)
	}
	for _, br := range report.Backends {
		if br.AUC < *minAUC {
			return fmt.Errorf("eval: backend %s AUC %.3f below the -min-auc floor %.3f", br.Backend, br.AUC, *minAUC)
		}
	}
	return nil
}

func renderEvalReport(report *harness.EvalReport) {
	fmt.Printf("eval on %s traffic: %d train / %d holdout / %d anomalous sessions, %d clusters, FPR budget %.0f%%\n",
		report.Source, report.TrainSessions, report.HoldoutSessions, report.AnomalySessions,
		report.ClusterCount, report.FPRBudget*100)
	for _, br := range report.Backends {
		fmt.Printf("\nbackend %s (trained in %.1fs)\n", br.Backend, br.TrainSeconds)
		fmt.Printf("  AUC:             %.3f\n", br.AUC)
		fmt.Printf("  TPR@%.0f%%FPR:      %.3f (score threshold %.5f)\n", br.FPRBudget*100, br.TPRAtBudget, br.ScoreThreshold)
		fmt.Printf("  precision:       %.3f   recall: %.3f\n", br.Precision, br.Recall)
		fmt.Printf("  calibrated floor: %.5f global, %d per-cluster floors\n",
			br.Calibrated.LikelihoodFloor, len(br.Calibrated.ClusterFloors))
		rp := br.Replay
		fmt.Printf("  engine replay (%d shards, %d events): %d/%d anomalies detected, %d/%d normals alarmed",
			rp.Shards, rp.Events, rp.DetectedAnomalies, rp.AnomalySessions, rp.AlarmedNormals, rp.NormalSessions)
		if rp.MeanTimeToDetection > 0 {
			fmt.Printf(", mean TTD %.1f actions", rp.MeanTimeToDetection)
		}
		fmt.Println()
		if len(br.Scenarios) > 0 {
			fmt.Printf("  per-scenario breakdown at the %.0f%%-FPR operating point:\n", br.FPRBudget*100)
			fmt.Printf("    %-16s %8s %9s %11s %12s %9s %8s\n",
				"scenario", "sessions", "campaigns", "tpr@budget", "false-alarms", "detected", "ttd")
			for _, s := range br.Scenarios {
				camps := "-"
				if s.Campaigns > 0 {
					camps = fmt.Sprintf("%d/%d", s.DetectedCampaigns, s.Campaigns)
				}
				fmt.Printf("    %-16s %8d %9s %11s %12s %9d %8s\n",
					s.Scenario, s.Sessions, camps, fmtRate(s.TPRAtBudget), fmtRate(s.FalseAlarmRate),
					s.DetectedSessions, fmtTTD(s.MeanTimeToDetection))
			}
		}
		for _, cr := range br.Clusters {
			if cr.Normals == 0 && cr.Anomalies == 0 {
				continue
			}
			auc := "    -"
			if cr.AUC >= 0 {
				auc = fmt.Sprintf("%.3f", cr.AUC)
			}
			fmt.Printf("    cluster %2d: %3d normal %3d anomalous  AUC %s  floor %.5f\n",
				cr.Cluster, cr.Normals, cr.Anomalies, auc, cr.Floor)
		}
	}
}

func cmdBench(args []string) error {
	fs := newFlagSet("bench")
	source := fs.String("source", "corpus", "traffic source: corpus or sim")
	holdout := fs.Int("holdout", 2, "held-out normal sessions per cluster (corpus source)")
	divisor := fs.Int("divisor", 100, "logsim corpus scale divisor (sim source)")
	backends := fs.String("backends", "lstm,ngram,hmm", "comma-separated scorer backends to bench (in-process mode)")
	shards := fs.String("shards", "1,4", "comma-separated engine shard counts")
	batch := fs.String("batch", "1", "comma-separated submission batch sizes: 1 = one event per submit/wire line, N = SubmitBatch / one {\"batch\":[...]} frame per N events")
	events := fs.Int("events", 20000, "events streamed per run")
	queue := fs.Int("queue", 0, "per-shard queue depth (0 = engine default)")
	hidden := fs.Int("hidden", 16, "LSTM hidden units")
	epochs := fs.Int("epochs", 4, "LSTM training epochs")
	seed := fs.Int64("seed", 11, "training and simulation seed")
	jsonOut := fs.Bool("json", false, "emit one JSON report object (the BENCH_ingest.json format)")
	addr := fs.String("addr", "", "also bench a live misused daemon at this address over the wire (appended to the report)")
	wireOnly := fs.Bool("wire-only", false, "with -addr: skip the in-process engine sweep")
	minSpeedup := fs.Float64("min-batch-speedup", 0, "exit nonzero when a wire-mode batched run's events/sec falls below this multiple of its batch-1 baseline (CI gate; needs -addr and batch sizes 1 and >1)")
	timeout := fs.Duration("timeout", 5*time.Minute, "wire-mode deadline")
	lstmMode := fs.Bool("lstm", false, "run the LSTM micro-batch sweep over engine ScoreBatch instead of the ingest sweep; -json emits the BENCH_lstm.json format")
	lstmBatch := fs.String("lstm-batch", "1,64", "comma-separated engine ScoreBatch values for -lstm (1 is the serial reference)")
	minLSTMSpeedup := fs.Float64("min-lstm-speedup", 0, "with -lstm: exit nonzero when the batch speedup falls below this multiple (CI gate; needs ScoreBatch 1 plus a larger value)")
	soakMode := fs.Bool("soak", false, "run the memory soak (fill N sessions, compact, touch, flush) instead of the ingest sweep; -json emits the BENCH_soak.json format")
	soakSessions := fs.Int("soak-sessions", 50000, "with -soak: distinct sessions held resident (the local acceptance run uses 1000000)")
	soakActions := fs.Int("soak-actions", 8, "with -soak: actions submitted per session")
	soakCeiling := fs.String("soak-ceiling", "", "with -soak: heap ceiling as a byte size (e.g. 512m, 2g); doubles as the engine MemBudget, and the run fails if the settled live heap exceeds it or anything was shed below it (CI gate)")
	soakMaxSessions := fs.Int("soak-max-sessions", 0, "with -soak: engine MaxSessions admission cap (0 = uncapped)")
	soakFlash := fs.Int("soak-flash", 0, "with -soak: drive a benign flash-crowd surge of this many brand-new sessions at the filled engine; combined with -soak-max-sessions it becomes a CI gate — the surge must be shed at admission with zero alarms")
	maxSoakP99 := fs.Duration("max-soak-p99", 0, "with -soak: exit nonzero when the fill's p99 per-batch ingest latency exceeds this (CI gate)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the bench run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after a forced GC) to this file when the bench finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := loadTraffic(*source, *holdout, *seed, *divisor, 30, 15)
	if err != nil {
		return err
	}
	shardCounts, err := splitShardCounts(*shards)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	batchSizes, err := splitShardCounts(*batch)
	if err != nil {
		return fmt.Errorf("bench: bad -batch: %w", err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("bench: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("bench: -cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// Written on every exit path (gate failures included) so a
		// failing CI run still leaves a profile to diagnose.
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "bench: -memprofile: %v\n", err)
			}
		}()
	}

	if *lstmMode {
		if *addr != "" || *wireOnly {
			return fmt.Errorf("bench: -lstm is in-process only (drop -addr / -wire-only)")
		}
		scoreBatches, err := splitShardCounts(*lstmBatch)
		if err != nil {
			return fmt.Errorf("bench: bad -lstm-batch: %w", err)
		}
		report, err := harness.BenchLSTM(tr, harness.LSTMBenchOptions{
			ScoreBatches: scoreBatches,
			Events:       *events,
			Shards:       shardCounts[0],
			QueueDepth:   *queue,
			Hidden:       *hidden,
			Epochs:       *epochs,
			Seed:         *seed,
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				return err
			}
		} else {
			renderLSTMBenchReport(report)
		}
		if *minLSTMSpeedup > 0 {
			if report.BatchSpeedup == 0 {
				return fmt.Errorf("bench: -min-lstm-speedup needs -lstm-batch with 1 and a larger value in the same run")
			}
			if report.BatchSpeedup < *minLSTMSpeedup {
				return fmt.Errorf("bench: lstm events/sec batch speedup %.2fx below the -min-lstm-speedup floor %.2fx", report.BatchSpeedup, *minLSTMSpeedup)
			}
		}
		return nil
	}

	if *soakMode {
		if *addr != "" || *wireOnly {
			return fmt.Errorf("bench: -soak is in-process only (drop -addr / -wire-only)")
		}
		var ceiling int64
		if *soakCeiling != "" {
			if ceiling, err = core.ParseByteSize(*soakCeiling); err != nil {
				return fmt.Errorf("bench: -soak-ceiling: %w", err)
			}
		}
		report, err := harness.BenchSoak(tr, harness.SoakOptions{
			Sessions:      *soakSessions,
			Actions:       *soakActions,
			Shards:        shardCounts[0],
			QueueDepth:    *queue,
			Hidden:        *hidden,
			Epochs:        *epochs,
			Seed:          *seed,
			MemBudget:     ceiling,
			MaxSessions:   *soakMaxSessions,
			FlashSessions: *soakFlash,
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				return err
			}
		} else {
			renderSoakReport(report)
		}
		if ceiling > 0 {
			if report.HeapLiveBytes > uint64(ceiling) {
				return fmt.Errorf("bench: soak live heap %s exceeds the -soak-ceiling %s",
					core.FormatByteSize(int64(report.HeapLiveBytes)), core.FormatByteSize(ceiling))
			}
			// Below the ceiling the engine must never have refused or
			// evicted anything: a shed under headroom is an accounting or
			// policy bug, not load. A -soak-flash surge's sheds are excluded
			// — being refused is what the surge is for.
			shed := (report.ShedSessions - report.FlashShedSessions) +
				(report.ShedEvents - report.FlashShedEvents) +
				(report.ShedEvictions - report.FlashShedEvictions) +
				report.AlarmsShed
			if shed > 0 {
				return fmt.Errorf("bench: soak shed %d (sessions %d, events %d, evictions %d, alarms %d) below the -soak-ceiling %s",
					shed, report.ShedSessions, report.ShedEvents, report.ShedEvictions, report.AlarmsShed, core.FormatByteSize(ceiling))
			}
		}
		if *soakFlash > 0 && *soakMaxSessions > 0 {
			// The flash gate only holds in admission-refusal mode: under a
			// MemBudget alone the surge is admitted, scored, and alarmed on
			// like any other traffic, so zero-alarm is not a valid check
			// there.
			if report.FlashShedSessions == 0 || report.FlashShedEvents == 0 {
				return fmt.Errorf("bench: soak flash surge of %d sessions was admitted past the -soak-max-sessions cap %d (shed sessions %d, events %d)",
					*soakFlash, *soakMaxSessions, report.FlashShedSessions, report.FlashShedEvents)
			}
			if report.FlashAlarms != 0 {
				return fmt.Errorf("bench: soak flash surge raised %d alarms, want 0 (benign refused traffic is never scored)", report.FlashAlarms)
			}
			if report.AlarmsShed != 0 {
				return fmt.Errorf("bench: soak attributed %d alarms to shedding, want 0", report.AlarmsShed)
			}
		}
		if *maxSoakP99 > 0 {
			p99 := time.Duration(report.Ingest.P99 * float64(time.Microsecond))
			if p99 > *maxSoakP99 {
				return fmt.Errorf("bench: soak p99 ingest latency %s above the -max-soak-p99 gate %s", p99, *maxSoakP99)
			}
		}
		return nil
	}

	var results []harness.BenchResult
	if !*wireOnly {
		for _, backend := range splitBackends(*backends) {
			res, err := harness.BenchEngine(tr, harness.BenchOptions{
				Backend:     backend,
				ShardCounts: shardCounts,
				BatchSizes:  batchSizes,
				Events:      *events,
				QueueDepth:  *queue,
				Hidden:      *hidden,
				Epochs:      *epochs,
				Seed:        *seed,
			})
			if err != nil {
				return err
			}
			results = append(results, res...)
		}
	} else if *addr == "" {
		return fmt.Errorf("bench: -wire-only needs -addr")
	}
	if *addr != "" {
		res, err := harness.BenchWire(*addr, tr, harness.BenchOptions{Events: *events, BatchSizes: batchSizes}, *timeout)
		if err != nil {
			return err
		}
		results = append(results, res...)
	}

	report := harness.NewBenchReport(results)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		renderBenchHeader()
		for _, r := range report.Results {
			renderBenchResult(r)
		}
		for group, ratio := range report.BatchSpeedup() {
			fmt.Printf("batch speedup %s: %.2fx\n", group, ratio)
		}
	}
	if *minSpeedup > 0 {
		// Gate the wire groups only: frame batching is a wire-protocol
		// claim (amortized syscalls, parses, and queue handoffs); the
		// in-process Submit baseline has none of those costs to save,
		// so its ratios stay informational.
		gated := 0
		for group, ratio := range report.BatchSpeedup() {
			if !strings.HasPrefix(group, "wire/") {
				continue
			}
			gated++
			if ratio < *minSpeedup {
				return fmt.Errorf("bench: %s events/sec speedup %.2fx below the -min-batch-speedup floor %.2fx", group, ratio, *minSpeedup)
			}
		}
		if gated == 0 {
			return fmt.Errorf("bench: -min-batch-speedup needs -addr and batch sizes 1 and >1 in the same run")
		}
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Force a collection first so the profile shows live heap, not
	// garbage awaiting the next GC cycle.
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// fmtRate renders a per-scenario rate, where -1 is the "not applicable
// for this class" sentinel (TPR on benign rows, FAR on anomalous ones).
func fmtRate(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// fmtTTD renders a mean time-to-detection in actions (-1 when the class
// was never detected, or is benign).
func fmtTTD(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

func sortedIntKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func renderLSTMBenchReport(r *harness.LSTMBenchReport) {
	fmt.Printf("lstm micro-batch bench: hidden %d, %d interleaved sessions, %s %s/%s, %d cpus\n",
		r.Hidden, r.Concurrency, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Printf("%11s %6s %8s %12s %9s %6s\n",
		"score_batch", "shards", "events", "events/sec", "wall (s)", "alarms")
	for _, res := range r.Results {
		fmt.Printf("%11d %6d %8d %12.0f %9.2f %6d\n",
			res.ScoreBatch, res.Shards, res.Events, res.EventsPerSec, res.WallSeconds, res.Alarms)
	}
	if r.BatchSpeedup > 0 {
		fmt.Printf("lstm batch speedup (largest ScoreBatch vs 1): %.2fx\n", r.BatchSpeedup)
	}
}

func renderSoakReport(r *harness.SoakReport) {
	fmt.Printf("memory soak: %d sessions x %d actions, backend %s hidden %d, %d shards, %s %s/%s, %d cpus\n",
		r.Sessions, r.ActionsPerSession, r.Backend, r.Hidden, r.Shards, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Printf("  fill:            %d events in %.1fs (%.0f events/sec), ingest p50/p99 %.1f/%.1f us per batch\n",
		r.Events, r.FillSeconds, r.FillEventsPerSec, r.Ingest.P50, r.Ingest.P99)
	fmt.Printf("  resident:        %d sessions (%d compacted, %d compactions)\n",
		r.SessionsResident, r.SessionsCompacted, r.Compactions)
	fmt.Printf("  heap:            %s baseline -> %s live (%.0f B/session settled)\n",
		core.FormatByteSize(int64(r.HeapBaselineBytes)), core.FormatByteSize(int64(r.HeapLiveBytes)), r.HeapPerSessionBytes)
	fmt.Printf("  accounted:       %s engine gauge", core.FormatByteSize(r.MemAccountedBytes))
	if r.MemBudgetBytes > 0 {
		fmt.Printf(" (budget %s)", core.FormatByteSize(r.MemBudgetBytes))
	}
	fmt.Println()
	fmt.Printf("  touch:           %d sessions, %d rehydrations, p50/p99 %.1f/%.1f us\n",
		r.TouchSessions, r.TouchRehydrations, r.Touch.P50, r.Touch.P99)
	fmt.Printf("  shed:            %d sessions, %d events, %d budget evictions, %d alarms\n",
		r.ShedSessions, r.ShedEvents, r.ShedEvictions, r.AlarmsShed)
	if r.FlashSessions > 0 {
		fmt.Printf("  flash surge:     %d sessions in %.1fs, shed %d sessions / %d events / %d evictions, %d alarms, p50/p99 %.1f/%.1f us per batch\n",
			r.FlashSessions, r.FlashSeconds, r.FlashShedSessions, r.FlashShedEvents, r.FlashShedEvictions, r.FlashAlarms, r.Flash.P50, r.Flash.P99)
	}
	fmt.Printf("  flush:           %d sessions ended in %.1fs (%.0f evictions/sec), %d alarms raised\n",
		r.SessionsResident, r.FlushSeconds, r.EvictionsPerSec, r.Alarms)
}

func renderBenchHeader() {
	fmt.Printf("%-6s %-7s %6s %5s %8s %9s %12s  %-26s %-26s %9s %6s\n",
		"mode", "backend", "shards", "batch", "events", "sessions", "events/sec",
		"ingest p50/p95/p99 (us)", "score p50/p95/p99 (us)", "allocs/ev", "alarms")
}

func renderBenchResult(r harness.BenchResult) {
	fmt.Printf("%-6s %-7s %6d %5d %8d %9d %12.0f  %8.1f/%8.1f/%8.1f %8.1f/%8.1f/%8.1f %9.2f %6d\n",
		r.Mode, r.Backend, r.Shards, r.Batch, r.Events, r.Sessions, r.EventsPerSec,
		r.Ingest.P50, r.Ingest.P95, r.Ingest.P99,
		r.Score.P50, r.Score.P95, r.Score.P99, r.SubmitAllocsPerEvent, r.Alarms)
}
