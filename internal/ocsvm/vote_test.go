package ocsvm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomCountRouter builds a router over dim count features without
// training: one to eight support vectors of random action counts (some
// exact duplicates of earlier ones, some long enough that their kernel
// distances leave the vote's exp table), random positive alphas, and a
// random gamma and rho.
func randomCountRouter(rng *rand.Rand, dim int) *Model {
	gammas := []float64{1 / float64(dim), rng.Float64(), 1e-3 * rng.Float64(), 0}
	m := &Model{gamma: gammas[rng.Intn(len(gammas))], rho: rng.Float64() - 0.25, dim: dim}
	for j := 0; j < 1+rng.Intn(8); j++ {
		var sv []float64
		if j > 0 && rng.Intn(4) == 0 {
			sv = append(sv, m.support[rng.Intn(j)]...)
		} else {
			sv = make([]float64, dim)
			length, spread := rng.Intn(20), dim
			if rng.Intn(5) == 0 {
				length, spread = 30+rng.Intn(60), 1+rng.Intn(3)
			}
			for k := 0; k < length; k++ {
				sv[rng.Intn(min(spread, dim))]++
			}
		}
		m.support = append(m.support, sv)
		m.alphas = append(m.alphas, 1e-3+rng.Float64())
	}
	m.finalize()
	return m
}

// checkVoteAgainstScoreSparse feeds actions to a fresh VoteState and
// asserts, at every step, that each cluster's score has the same bits as
// ScoreSparse on the prefix's count vector, that the per-cluster tally
// and the running leader match the old per-action argmax vote, and that
// out-of-vocab actions and actions past the window are refused.
func checkVoteAgainstScoreSparse(t *testing.T, routers []*Model, window int, actions []int) {
	t.Helper()
	v, err := NewVote(routers, window)
	if err != nil {
		t.Fatal(err)
	}
	dim := routers[0].Dim()
	f, err := NewFeaturizer(dim, FeatureCounts)
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := v.NewState(), f.Stream()
	tally := make([]int, len(routers))
	observed := 0
	for step, a := range actions {
		err := st.Observe(a)
		switch {
		case a < 0 || a >= dim:
			if err == nil {
				t.Fatalf("step %d: out-of-vocab action %d accepted", step, a)
			}
			continue
		case observed == window:
			if err == nil {
				t.Fatalf("step %d: action past the %d-action window accepted", step, window)
			}
			continue
		case err != nil:
			t.Fatalf("step %d: %v", step, err)
		}
		observed++
		x, err := oracle.Observe(a)
		if err != nil {
			t.Fatal(err)
		}
		best, bestS := 0, math.Inf(-1)
		for c, r := range routers {
			want, err := r.ScoreSparse(x, oracle.Support())
			if err != nil {
				t.Fatal(err)
			}
			if got := st.score(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d cluster %d: vote score %v (%#x), ScoreSparse %v (%#x)",
					step, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if want > bestS {
				best, bestS = c, want
			}
		}
		tally[best]++
		for c, n := range tally {
			if int(st.votes[c]) != n {
				t.Fatalf("step %d: vote tally %v, ScoreSparse argmax tally %v", step, st.votes, tally)
			}
		}
		leader := 0
		for c, n := range tally {
			if n > tally[leader] {
				leader = c
			}
		}
		if got := st.Leader(); got != leader {
			t.Fatalf("step %d: leader %d, tally %v", step, got, tally)
		}
	}
}

// FuzzVoteMatchesScoreSparse pins the incremental vote to the sparse
// kernel it replaces on the serving path: random count-feature routers
// (duplicate support vectors included) and random action sequences with
// repeats, some actions outside the vocabulary, some past the window.
func FuzzVoteMatchesScoreSparse(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint8(15), []byte{0, 1, 1, 2, 3, 3, 3, 12, 250})
	f.Add(int64(2), uint8(0), uint8(0), uint8(3), []byte{0, 1, 1, 1, 1})
	f.Add(int64(3), uint8(12), uint8(40), uint8(14), []byte("the quick brown fox jumps over"))
	f.Add(int64(4), uint8(5), uint8(3), uint8(31), bytes.Repeat([]byte{1, 2, 1, 3}, 10))
	f.Fuzz(func(t *testing.T, seed int64, clusters, dim, window uint8, raw []byte) {
		d := 1 + int(dim)%48
		rng := rand.New(rand.NewSource(seed))
		routers := make([]*Model, 1+int(clusters)%13)
		for c := range routers {
			routers[c] = randomCountRouter(rng, d)
		}
		actions := make([]int, len(raw))
		for i, b := range raw {
			actions[i] = int(b)%(d+3) - 1 // -1 and d, d+1 are outside the vocabulary
		}
		checkVoteAgainstScoreSparse(t, routers, 1+int(window)%32, actions)
	})
}

// TestVoteMatchesTrainedRouters runs the same check on routers fitted by
// Train on count vectors (real SMO alphas and rho), before and after a
// save/load round trip.
func TestVoteMatchesTrainedRouters(t *testing.T) {
	var routers []*Model
	for c := 0; c < 4; c++ {
		m, err := Train(benchTrainingSet(60+20*c, int64(c)), DefaultConfig(int64(10+c)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		routers = append(routers, m, loaded)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		actions := make([]int, 15)
		for i := range actions {
			actions[i] = rng.Intn(1 + rng.Intn(30))
		}
		checkVoteAgainstScoreSparse(t, routers, 15, actions)
	}
}

func TestNewVoteRefusesInexactRouters(t *testing.T) {
	router := func(svs ...[]float64) *Model {
		m := &Model{gamma: 0.1, dim: len(svs[0]), support: svs, alphas: make([]float64, len(svs))}
		m.finalize()
		return m
	}
	ok := router([]float64{1, 0, 2})
	cases := []struct {
		name    string
		routers []*Model
		window  int
		want    string
	}{
		{"no routers", nil, 15, "at least one router"},
		{"zero window", []*Model{ok}, 0, "window"},
		{"huge window", []*Model{ok}, maxVoteWindow + 1, "window"},
		{"dimension mismatch", []*Model{ok, router([]float64{1, 0})}, 15, "features"},
		{"fractional count", []*Model{ok, router([]float64{0.5, 0, 0})}, 15, "not a non-negative integer"},
		{"negative count", []*Model{router([]float64{-1, 0, 0})}, 15, "not a non-negative integer"},
		{"NaN", []*Model{router([]float64{math.NaN(), 0, 0})}, 15, "not a non-negative integer"},
		{"infinity", []*Model{router([]float64{math.Inf(1), 0, 0})}, 15, "not a non-negative integer"},
		{"norm past exact range", []*Model{router([]float64{1 << 30, 0, 0})}, 15, "norm"},
	}
	for _, tc := range cases {
		_, err := NewVote(tc.routers, tc.window)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewVote([]*Model{ok, ok}, 15); err != nil {
		t.Fatalf("count router refused: %v", err)
	}
}

// TestVoteObserveAllocs pins the per-action vote at zero allocations.
func TestVoteObserveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	routers := make([]*Model, 13)
	for c := range routers {
		routers[c] = randomCountRouter(rng, 40)
	}
	v, err := NewVote(routers, 1000)
	if err != nil {
		t.Fatal(err)
	}
	st := v.NewState()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Observe(i % 17); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("VoteState.Observe allocates %v times per action", allocs)
	}
}
