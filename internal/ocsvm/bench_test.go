package ocsvm

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTrainingSet mimics one behavior cluster: bag-of-action count
// vectors over a 300-action vocabulary, ~15 actions per session spread
// over a 20-action active subset.
func benchTrainingSet(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, 300)
		length := 8 + rng.Intn(15)
		for j := 0; j < length; j++ {
			x[rng.Intn(20)]++
		}
		out[i] = x
	}
	return out
}

// BenchmarkTrainClusterSized measures fitting one cluster's OC-SVM at a
// realistic cluster size.
func BenchmarkTrainClusterSized(b *testing.B) {
	xs := benchTrainingSet(500, 1)
	cfg := DefaultConfig(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(xs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScore measures one dense OC-SVM decision over the full
// feature vector: the offline Route path. The online vote scores
// incrementally instead (BenchmarkVoteObserve).
func BenchmarkScore(b *testing.B) {
	xs := benchTrainingSet(500, 3)
	m, err := Train(xs, DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	probe := xs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturizeSession measures the bag-of-actions featurizer.
func BenchmarkFeaturizeSession(b *testing.B) {
	f, err := NewFeaturizer(300, FeatureCounts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	session := make([]int, 15)
	for i := range session {
		session[i] = rng.Intn(300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Session(session); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVoteObserve measures one action of the online routing vote
// over 13 clusters: the per-action cost every session pays during its
// vote window. "corpus" trains each cluster's router on 6 sessions, the
// size of the embedded corpus's clusters (2-5 support vectors each);
// "paper" on 200 (tens of support vectors each). Sessions of 15 actions
// over a cluster's 20-action active subset replay in a loop, the state
// cleared in place between sessions.
func BenchmarkVoteObserve(b *testing.B) {
	for _, size := range []struct {
		name     string
		sessions int
	}{{"corpus", 6}, {"paper", 200}} {
		b.Run(size.name, func(b *testing.B) {
			routers := make([]*Model, 13)
			svs := 0
			for c := range routers {
				m, err := Train(benchTrainingSet(size.sessions, int64(c)), DefaultConfig(int64(c)))
				if err != nil {
					b.Fatal(err)
				}
				routers[c] = m
				svs += m.SupportVectorCount()
			}
			v, err := NewVote(routers, 15)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			session := make([]int, 15*64)
			for i := range session {
				session[i] = rng.Intn(20)
			}
			st := v.NewState()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%15 == 0 {
					resetVoteState(st)
				}
				if err := st.Observe(session[i%len(session)]); err != nil {
					b.Fatal(fmt.Errorf("action %d: %w", i, err))
				}
			}
			b.ReportMetric(float64(svs), "svs")
		})
	}
}

// resetVoteState clears a state in place for the next session.
func resetVoteState(s *VoteState) {
	clear(s.dots)
	clear(s.votes)
	s.xnorm, s.seen, s.n = 0, s.seen[:0], 0
}
