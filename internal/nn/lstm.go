package nn

import (
	"fmt"
	"math"
	"math/rand"

	"misusedetect/internal/tensor"
)

// LSTM is a single Long Short-Term Memory layer over one-hot inputs. The
// input at each step is an action index; because inputs are one-hot, the
// input projection is a column gather instead of a full matrix-vector
// product, which is what makes pure-Go training tractable at ~300 actions.
//
// Gate layout along the 4H dimension is [input; forget; output; candidate].
type LSTM struct {
	InputSize  int
	HiddenSize int
	// Wx is the 4H x InputSize input projection.
	Wx *Param
	// Wh is the 4H x H recurrent projection.
	Wh *Param
	// B is the 1 x 4H bias; the forget-gate slice is initialized to 1,
	// the standard trick to preserve memory early in training.
	B *Param
}

// NewLSTM allocates and initializes an LSTM layer.
func NewLSTM(inputSize, hiddenSize int, rng *rand.Rand) (*LSTM, error) {
	if inputSize < 1 || hiddenSize < 1 {
		return nil, fmt.Errorf("nn: invalid LSTM shape in=%d hidden=%d", inputSize, hiddenSize)
	}
	l := &LSTM{
		InputSize:  inputSize,
		HiddenSize: hiddenSize,
		Wx:         NewParam("lstm.wx", 4*hiddenSize, inputSize),
		Wh:         NewParam("lstm.wh", 4*hiddenSize, hiddenSize),
		B:          NewParam("lstm.b", 1, 4*hiddenSize),
	}
	tensor.XavierInit(l.Wx.W, inputSize, hiddenSize, rng)
	tensor.OrthogonalScaledInit(l.Wh.W, rng)
	for h := hiddenSize; h < 2*hiddenSize; h++ { // forget gate bias = 1
		l.B.W.Data[h] = 1
	}
	return l, nil
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// State is the recurrent state (h, c) carried across steps.
type State struct {
	H tensor.Vector
	C tensor.Vector
}

// NewState returns a zero state.
func (l *LSTM) NewState() *State {
	return &State{H: tensor.NewVector(l.HiddenSize), C: tensor.NewVector(l.HiddenSize)}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	return &State{H: s.H.Clone(), C: s.C.Clone()}
}

// stepCache stores everything the backward pass needs for one timestep.
type stepCache struct {
	x          int // input index, PaddingIndex (<0) means zero input
	hPrev      tensor.Vector
	cPrev      tensor.Vector
	i, f, o, g tensor.Vector
	c          tensor.Vector
	tanhC      tensor.Vector
}

// preactivate computes the gate pre-activations z = b + Wx[:, x] + Wh*h
// (x < 0 encodes a zero/padded input, skipping the one-hot column). Every
// step variant — Step, StepReuse, and the per-row pre-activation of
// StepBatch — must accumulate in exactly this order so serial and batched
// inference stay bit-identical.
func (l *LSTM) preactivate(z tensor.Vector, x int, h tensor.Vector) {
	copy(z, l.B.W.Data)
	if x >= 0 {
		// One-hot input: add column x of Wx.
		for r := 0; r < 4*l.HiddenSize; r++ {
			z[r] += l.Wx.W.Data[r*l.InputSize+x]
		}
	}
	l.Wh.W.MulVecAdd(z, h)
}

// Step advances the state by one input index (x < 0 encodes a zero/padded
// input) and returns the new hidden vector. When cache is non-nil the step
// records what the backward pass needs.
func (l *LSTM) Step(st *State, x int, cache *stepCache) tensor.Vector {
	hs := l.HiddenSize
	z := tensor.NewVector(4 * hs)
	l.preactivate(z, x, st.H)

	i := tensor.NewVector(hs)
	f := tensor.NewVector(hs)
	o := tensor.NewVector(hs)
	g := tensor.NewVector(hs)
	for k := 0; k < hs; k++ {
		i[k] = sigmoid(z[k])
		f[k] = sigmoid(z[hs+k])
		o[k] = sigmoid(z[2*hs+k])
		g[k] = math.Tanh(z[3*hs+k])
	}
	c := tensor.NewVector(hs)
	tanhC := tensor.NewVector(hs)
	h := tensor.NewVector(hs)
	for k := 0; k < hs; k++ {
		c[k] = f[k]*st.C[k] + i[k]*g[k]
		tanhC[k] = math.Tanh(c[k])
		h[k] = o[k] * tanhC[k]
	}
	if cache != nil {
		cache.x = x
		cache.hPrev = st.H.Clone()
		cache.cPrev = st.C.Clone()
		cache.i, cache.f, cache.o, cache.g = i, f, o, g
		cache.c = c
		cache.tanhC = tanhC
	}
	st.H = h
	st.C = c
	return h
}

// StepScratch holds the per-step work buffers of an allocation-free
// inference step. One scratch must not be shared between goroutines.
type StepScratch struct {
	z, i, f, o, g tensor.Vector
	// h and c are double buffers: StepReuse computes the next state into
	// them and swaps them with the State's slices, so the previous state
	// storage becomes the next step's scratch.
	h, c tensor.Vector
}

// NewStepScratch allocates work buffers sized for this layer.
func (l *LSTM) NewStepScratch() *StepScratch {
	hs := l.HiddenSize
	return &StepScratch{
		z: tensor.NewVector(4 * hs),
		i: tensor.NewVector(hs),
		f: tensor.NewVector(hs),
		o: tensor.NewVector(hs),
		g: tensor.NewVector(hs),
		h: tensor.NewVector(hs),
		c: tensor.NewVector(hs),
	}
}

// StepReuse advances the state by one input index exactly like Step but
// without allocating: all intermediates live in the scratch, and the new
// (h, c) are swapped into the state. The returned hidden vector aliases
// st.H and is only valid until the next step. Inference-only: no cache is
// recorded, so it cannot feed the backward pass.
func (l *LSTM) StepReuse(st *State, x int, s *StepScratch) tensor.Vector {
	hs := l.HiddenSize
	z := s.z
	l.preactivate(z, x, st.H)
	for k := 0; k < hs; k++ {
		s.i[k] = sigmoid(z[k])
		s.f[k] = sigmoid(z[hs+k])
		s.o[k] = sigmoid(z[2*hs+k])
		s.g[k] = math.Tanh(z[3*hs+k])
	}
	for k := 0; k < hs; k++ {
		s.c[k] = s.f[k]*st.C[k] + s.i[k]*s.g[k]
		s.h[k] = s.o[k] * math.Tanh(s.c[k])
	}
	st.H, s.h = s.h, st.H
	st.C, s.c = s.c, st.C
	return st.H
}

// backwardStep accumulates parameter gradients for one cached step given
// dH (gradient w.r.t. the step's output hidden vector) and dC (gradient
// flowing into the cell state from the future). It returns the gradients
// w.r.t. the previous hidden and cell state.
func (l *LSTM) backwardStep(cache *stepCache, dH, dC tensor.Vector) (dHPrev, dCPrev tensor.Vector) {
	hs := l.HiddenSize
	dz := tensor.NewVector(4 * hs)
	dCPrev = tensor.NewVector(hs)
	for k := 0; k < hs; k++ {
		do := dH[k] * cache.tanhC[k]
		dc := dC[k] + dH[k]*cache.o[k]*(1-cache.tanhC[k]*cache.tanhC[k])
		di := dc * cache.g[k]
		df := dc * cache.cPrev[k]
		dg := dc * cache.i[k]
		dCPrev[k] = dc * cache.f[k]

		dz[k] = di * cache.i[k] * (1 - cache.i[k])
		dz[hs+k] = df * cache.f[k] * (1 - cache.f[k])
		dz[2*hs+k] = do * cache.o[k] * (1 - cache.o[k])
		dz[3*hs+k] = dg * (1 - cache.g[k]*cache.g[k])
	}
	// Parameter gradients.
	if cache.x >= 0 {
		for r := 0; r < 4*hs; r++ {
			l.Wx.G.Data[r*l.InputSize+cache.x] += dz[r]
		}
	}
	l.Wh.G.AddOuter(1, dz, cache.hPrev)
	for r := 0; r < 4*hs; r++ {
		l.B.G.Data[r] += dz[r]
	}
	// Gradient to the previous hidden state.
	dHPrev = tensor.NewVector(hs)
	l.Wh.W.MulVecTAdd(dHPrev, dz)
	return dHPrev, dCPrev
}
