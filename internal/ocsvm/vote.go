package ocsvm

import (
	"fmt"
	"math"
)

// voteExpTable caps how many integer squared distances a cluster's
// exp(-gamma*d) table covers; larger distances call math.Exp. Inside the
// routing vote window a prefix holds at most a few dozen actions, and on
// the bundled corpus and the synthetic logsim workloads about 87% of the
// kernel evaluations the vote makes fall below 1024. A lookup is
// several times cheaper than math.Exp: BenchmarkVoteObserve runs 3-5x
// slower without the table.
const voteExpTable = 1024

// maxExactNorm bounds a support vector's squared norm. With every
// coordinate a non-negative integer, ||sv||^2 <= 2^50 and a window of at
// most maxVoteWindow actions keep every dot product, norm and distance
// the vote accumulates an exact integer in float64.
const maxExactNorm = 1 << 50

// maxVoteWindow bounds the vote window (||x||^2 <= window^2 = 2^40).
const maxVoteWindow = 1 << 20

// Vote is the paper's online routing vote over a set of cluster routers
// in incremental form: each action of a session's vote window adds one
// count to its feature vector x, so instead of re-scoring every support
// vector against the whole prefix (ScoreSparse), a VoteState keeps one
// running <sv, x> per support vector and adds the observed action's
// column of the support vectors to it. The kernel distance is then
// ||sv||^2 - 2<sv,x> + ||x||^2 in O(1) per support vector.
//
// The vote is exact, not an approximation. Count features and the
// training count vectors the support vectors are copied from hold only
// non-negative integers, so every dot product, norm and distance is an
// exact integer in float64 and equals ScoreSparse's sum bit for bit;
// exp(-gamma*d) for small integer d therefore comes from a per-cluster
// table filled by the same math.Exp call. NewVote refuses routers whose
// support vectors break that premise. A Vote is immutable and shared by
// every session of a detector.
type Vote struct {
	dim    int
	window int
	// start[c]..start[c+1] are cluster c's support vectors in the
	// flattened alpha and svNorm.
	start  []int
	gamma  []float64
	rho    []float64
	alpha  []float64
	svNorm []float64
	// expTab[c][d] is exp(-gamma[c]*d) for every d < voteExpTable the
	// window can reach: with non-negative counts <sv,x> >= 0, so
	// d <= ||sv||^2 + ||x||^2 <= max ||sv||^2 + window^2.
	expTab [][]float64
	// The support vectors, transposed into a sparse column index:
	// action a's nonzero coordinates are colSV[k], colVal[k] for k in
	// colStart[a]..colStart[a+1].
	colStart []int
	colSV    []int
	colVal   []float64
}

// NewVote builds the vote over one router per cluster (cluster c is
// routers[c]) for a window of the given number of actions. Every router
// must share one feature dimension and carry support vectors of
// non-negative integers, as count features produce.
func NewVote(routers []*Model, window int) (*Vote, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("ocsvm: vote needs at least one router")
	}
	if window < 1 || window > maxVoteWindow {
		return nil, fmt.Errorf("ocsvm: vote window %d outside [1, %d]", window, maxVoteWindow)
	}
	v := &Vote{
		dim:    routers[0].dim,
		window: window,
		start:  make([]int, 1, len(routers)+1),
		gamma:  make([]float64, len(routers)),
		rho:    make([]float64, len(routers)),
		expTab: make([][]float64, len(routers)),
	}
	cols := make([]int, v.dim+1)
	for c, m := range routers {
		if m.dim != v.dim {
			return nil, fmt.Errorf("ocsvm: vote router %d has %d features, router 0 has %d", c, m.dim, v.dim)
		}
		var maxNorm float64
		for j, sv := range m.support {
			if len(sv) != m.dim {
				return nil, fmt.Errorf("ocsvm: vote router %d support vector %d has %d features, want %d", c, j, len(sv), m.dim)
			}
			for a, x := range sv {
				if !(x >= 0 && x <= maxExactNorm && x == math.Trunc(x)) {
					return nil, fmt.Errorf("ocsvm: vote router %d support vector %d coordinate %d is %v, not a non-negative integer count", c, j, a, x)
				}
				if x != 0 {
					cols[a+1]++
				}
			}
			if m.svNorm[j] > maxExactNorm {
				return nil, fmt.Errorf("ocsvm: vote router %d support vector %d norm %v exceeds %v", c, j, m.svNorm[j], float64(maxExactNorm))
			}
			maxNorm = max(maxNorm, m.svNorm[j])
		}
		v.alpha = append(v.alpha, m.alphas...)
		v.svNorm = append(v.svNorm, m.svNorm...)
		v.start = append(v.start, len(v.alpha))
		v.gamma[c], v.rho[c] = m.gamma, m.rho
		tab := make([]float64, int(min(maxNorm+float64(window)*float64(window)+1, voteExpTable)))
		for d := range tab {
			tab[d] = math.Exp(-m.gamma * float64(d))
		}
		v.expTab[c] = tab
	}
	for a := 0; a < v.dim; a++ {
		cols[a+1] += cols[a]
	}
	v.colStart = cols
	v.colSV = make([]int, cols[v.dim])
	v.colVal = make([]float64, cols[v.dim])
	fill := append([]int(nil), cols[:v.dim]...)
	g := 0
	for _, m := range routers {
		for _, sv := range m.support {
			for a, x := range sv {
				if x != 0 {
					v.colSV[fill[a]], v.colVal[fill[a]] = g, x
					fill[a]++
				}
			}
			g++
		}
	}
	return v, nil
}

// actionCount is one distinct action of the window and its count so far.
type actionCount struct{ action, count int32 }

// VoteState is one session's progress through the vote window: a running
// <sv, x> per support vector, ||x||^2, the distinct actions seen with
// their counts, and each cluster's tally of per-action wins. Its size
// depends on the support-vector count and the window, never on the
// vocabulary, and Observe allocates nothing.
type VoteState struct {
	v     *Vote
	dots  []float64
	xnorm float64
	seen  []actionCount
	votes []int32
	n     int
}

// NewState starts one session's vote.
func (v *Vote) NewState() *VoteState {
	return &VoteState{
		v:     v,
		dots:  make([]float64, len(v.alpha)),
		seen:  make([]actionCount, 0, min(v.window, v.dim)),
		votes: make([]int32, len(v.gamma)),
	}
}

// Observe adds one action to the session's prefix, scores the prefix
// with every cluster's OC-SVM and counts a vote for the best-scoring
// cluster, ties to the lowest cluster index. It is an error to observe
// an action outside the vocabulary or more actions than the window
// holds.
func (s *VoteState) Observe(action int) error {
	v := s.v
	if action < 0 || action >= v.dim {
		return fmt.Errorf("ocsvm: vote action %d outside vocab %d", action, v.dim)
	}
	if s.n == v.window {
		return fmt.Errorf("ocsvm: vote window of %d actions is closed", v.window)
	}
	s.n++
	i := 0
	for i < len(s.seen) && s.seen[i].action != int32(action) {
		i++
	}
	if i == len(s.seen) {
		// Never grows: at most min(window, dim) actions are distinct.
		s.seen = append(s.seen, actionCount{action: int32(action)})
	}
	// ||x + e_a||^2 = ||x||^2 + 2*x_a + 1.
	s.xnorm += float64(2*s.seen[i].count + 1)
	s.seen[i].count++
	for k := v.colStart[action]; k < v.colStart[action+1]; k++ {
		s.dots[v.colSV[k]] += v.colVal[k]
	}
	best, bestS := 0, math.Inf(-1)
	for c := range s.votes {
		if score := s.score(c); score > bestS {
			best, bestS = c, score
		}
	}
	s.votes[best]++
	return nil
}

// score returns cluster c's decision value on the prefix observed so
// far: bit for bit what Model.ScoreSparse returns on the prefix's count
// vector.
func (s *VoteState) score(c int) float64 {
	v := s.v
	tab := v.expTab[c]
	inTab := float64(len(tab))
	lo, hi := v.start[c], v.start[c+1]
	norms, dots, alpha := v.svNorm[lo:hi], s.dots[lo:hi], v.alpha[lo:hi]
	dots, alpha = dots[:len(norms)], alpha[:len(norms)]
	var sum float64
	for j, n := range norms {
		d := n - 2*dots[j] + s.xnorm
		var k float64
		if d < inTab {
			k = tab[int(d)]
		} else {
			k = math.Exp(-v.gamma[c] * d)
		}
		sum += alpha[j] * k
	}
	return sum - v.rho[c]
}

// Leader returns the cluster with the most per-action wins so far, ties
// to the lowest index: the paper's "most frequently assigned cluster".
func (s *VoteState) Leader() int {
	best := 0
	for c, n := range s.votes {
		if n > s.votes[best] {
			best = c
		}
	}
	return best
}

// MemSize estimates the resident heap bytes of the state.
func (s *VoteState) MemSize() int {
	return len(s.dots)*8 + cap(s.seen)*8 + len(s.votes)*4 + 96
}
