package nn

import (
	"fmt"
	"math/rand"

	"misusedetect/internal/tensor"
)

// NetworkConfig describes the paper's model: one LSTM layer, a dropout
// layer, and a dense softmax output over the action set.
type NetworkConfig struct {
	// InputSize is the vocabulary size d (one-hot input dimension).
	InputSize int
	// HiddenSize is the LSTM unit count (256 in the paper).
	HiddenSize int
	// DropoutRate is the dropout applied between LSTM and dense layers
	// during training (0.4 in the paper).
	DropoutRate float64
	// Seed drives weight initialization and dropout masks.
	Seed int64
}

// PaperNetworkConfig returns the hyperparameters selected in the paper's
// preparatory evaluation: 256 LSTM units, dropout 0.4.
func PaperNetworkConfig(vocab int, seed int64) NetworkConfig {
	return NetworkConfig{InputSize: vocab, HiddenSize: 256, DropoutRate: 0.4, Seed: seed}
}

func (c *NetworkConfig) validate() error {
	if c.InputSize < 1 {
		return fmt.Errorf("nn: InputSize must be >= 1, got %d", c.InputSize)
	}
	if c.HiddenSize < 1 {
		return fmt.Errorf("nn: HiddenSize must be >= 1, got %d", c.HiddenSize)
	}
	if c.DropoutRate < 0 || c.DropoutRate >= 1 {
		return fmt.Errorf("nn: DropoutRate %v outside [0,1)", c.DropoutRate)
	}
	return nil
}

// LanguageNetwork is the next-action prediction network of the paper:
// one-hot action input -> LSTM -> dropout -> dense softmax over actions.
type LanguageNetwork struct {
	cfg   NetworkConfig
	lstm  *LSTM
	dense *Dense
	rng   *rand.Rand
}

// NewLanguageNetwork builds and initializes the network.
func NewLanguageNetwork(cfg NetworkConfig) (*LanguageNetwork, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lstm, err := NewLSTM(cfg.InputSize, cfg.HiddenSize, rng)
	if err != nil {
		return nil, err
	}
	dense, err := NewDense(cfg.HiddenSize, cfg.InputSize, rng)
	if err != nil {
		return nil, err
	}
	return &LanguageNetwork{cfg: cfg, lstm: lstm, dense: dense, rng: rng}, nil
}

// Config returns the network configuration.
func (n *LanguageNetwork) Config() NetworkConfig { return n.cfg }

// Params returns all trainable parameters.
func (n *LanguageNetwork) Params() []*Param {
	return append(n.lstm.Params(), n.dense.Params()...)
}

// ParamCount returns the total number of trainable weights.
func (n *LanguageNetwork) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}

// validateSeq checks every index is either PaddingIndex (<0, zero input)
// or a valid action.
func (n *LanguageNetwork) validateSeq(seq []int) error {
	for i, x := range seq {
		if x >= n.cfg.InputSize {
			return fmt.Errorf("nn: sequence position %d index %d outside vocab %d", i, x, n.cfg.InputSize)
		}
	}
	return nil
}

// ForwardAll runs the network in inference mode over a sequence and
// returns, for every step t, the predicted distribution over the action
// following seq[:t+1]. No dropout is applied.
func (n *LanguageNetwork) ForwardAll(seq []int) ([]tensor.Vector, error) {
	if err := n.validateSeq(seq); err != nil {
		return nil, err
	}
	st := n.lstm.NewState()
	out := make([]tensor.Vector, len(seq))
	for t, x := range seq {
		h := n.lstm.Step(st, x, nil)
		logits := n.dense.Forward(h)
		probs := tensor.NewVector(len(logits))
		tensor.Softmax(probs, logits)
		out[t] = probs
	}
	return out, nil
}

// PredictNext returns the next-action distribution after consuming the
// whole context.
func (n *LanguageNetwork) PredictNext(context []int) (tensor.Vector, error) {
	if len(context) == 0 {
		return nil, fmt.Errorf("nn: empty context")
	}
	all, err := n.ForwardAll(context)
	if err != nil {
		return nil, err
	}
	return all[len(all)-1], nil
}

// StreamState is the incremental scorer used by the online monitor: it
// consumes one action at a time, returning the probability the model
// assigned to that action before consuming it. Its Observe signature
// deliberately matches the scorer.Stream contract — the neural network
// side of the pluggable backend seam — so lm can hand it to
// internal/core unwrapped (lm asserts the conformance; nn stays below
// the seam and does not import it).
type StreamState struct {
	net   *LanguageNetwork
	state *State
	// nextProbs is the prediction for the upcoming action; nil until the
	// first action is consumed.
	nextProbs tensor.Vector
	// scratch, when non-nil, switches the stream into buffer-reuse mode:
	// every Observe writes into the same preallocated buffers instead of
	// allocating fresh vectors.
	scratch *StreamScratch
}

// StreamScratch holds the preallocated buffers of an allocation-free
// stream: the LSTM step scratch plus the logits and probability vectors.
type StreamScratch struct {
	lstm   *StepScratch
	logits tensor.Vector
	probs  tensor.Vector
}

// NewStreamScratch allocates stream buffers sized for this network.
func (n *LanguageNetwork) NewStreamScratch() *StreamScratch {
	return &StreamScratch{
		lstm:   n.lstm.NewStepScratch(),
		logits: tensor.NewVector(n.cfg.InputSize),
		probs:  tensor.NewVector(n.cfg.InputSize),
	}
}

// NewStream returns a fresh incremental scorer.
func (n *LanguageNetwork) NewStream() *StreamState {
	return &StreamState{net: n, state: n.lstm.NewState()}
}

// NewStreamPrealloc returns an incremental scorer that reuses preallocated
// scratch buffers across steps, so steady-state scoring performs no
// per-action allocations. In this mode the distribution returned by
// Observe is overwritten by the next Observe; callers that retain it
// across steps must read it before observing again (or Clone it).
func (n *LanguageNetwork) NewStreamPrealloc() *StreamState {
	return &StreamState{net: n, state: n.lstm.NewState(), scratch: n.NewStreamScratch()}
}

// Observe consumes one action and returns (probability the model assigned
// to it, distribution over the following action). The first observed
// action has no prediction, so probability -1 is returned for it.
func (s *StreamState) Observe(action int) (float64, tensor.Vector, error) {
	if action < 0 || action >= s.net.cfg.InputSize {
		return 0, nil, fmt.Errorf("nn: stream action %d outside vocab %d", action, s.net.cfg.InputSize)
	}
	p := -1.0
	if s.nextProbs != nil {
		p = s.nextProbs[action]
	}
	var probs tensor.Vector
	if s.scratch != nil {
		h := s.net.lstm.StepReuse(s.state, action, s.scratch.lstm)
		s.net.dense.ForwardInto(s.scratch.logits, h)
		probs = s.scratch.probs
		tensor.Softmax(probs, s.scratch.logits)
	} else {
		h := s.net.lstm.Step(s.state, action, nil)
		logits := s.net.dense.Forward(h)
		probs = tensor.NewVector(len(logits))
		tensor.Softmax(probs, logits)
	}
	s.nextProbs = probs
	return p, probs, nil
}

// TrainSequence performs one forward/backward pass over a session,
// predicting each action from its predecessors (positions 1..n-1), and
// accumulates gradients of the mean per-step cross-entropy. It returns
// the mean loss and the number of predicted positions. The caller batches
// several calls and then applies the optimizer.
func (n *LanguageNetwork) TrainSequence(seq []int) (float64, int, error) {
	if len(seq) < 2 {
		return 0, 0, fmt.Errorf("nn: training sequence needs >= 2 actions, got %d", len(seq))
	}
	if err := n.validateSeq(seq); err != nil {
		return 0, 0, err
	}
	steps := len(seq) - 1
	caches := make([]stepCache, steps)
	hs := make([]tensor.Vector, steps)
	masks := make([]tensor.Vector, steps)
	dhs := make([]tensor.Vector, steps)

	st := n.lstm.NewState()
	var totalLoss float64
	inv := 1 / float64(steps)
	for t := 0; t < steps; t++ {
		h := n.lstm.Step(st, seq[t], &caches[t])
		dropped := h.Clone()
		mask, err := Dropout(dropped, n.cfg.DropoutRate, n.rng)
		if err != nil {
			return 0, 0, err
		}
		masks[t] = mask
		hs[t] = dropped
		logits := n.dense.Forward(dropped)
		_, loss, dLogits, err := SoftmaxCrossEntropy(logits, seq[t+1])
		if err != nil {
			return 0, 0, err
		}
		totalLoss += loss
		dLogits.Scale(inv)
		dh := n.dense.Backward(dropped, dLogits)
		DropoutBackward(dh, mask)
		dhs[t] = dh
	}

	// Backpropagation through time.
	dC := tensor.NewVector(n.cfg.HiddenSize)
	dH := tensor.NewVector(n.cfg.HiddenSize)
	for t := steps - 1; t >= 0; t-- {
		dH.AddScaled(1, dhs[t])
		var dHPrev, dCPrev tensor.Vector
		dHPrev, dCPrev = n.lstm.backwardStep(&caches[t], dH, dC)
		dH = dHPrev
		dC = dCPrev
	}
	return totalLoss * inv, steps, nil
}

// TrainWindow performs one forward/backward pass over a fixed window in
// the paper's many-to-one formulation: the network consumes the padded
// context (PaddingIndex entries are zero inputs) and is trained to predict
// only the target action. Gradients of the window loss are accumulated.
func (n *LanguageNetwork) TrainWindow(input []int, target int) (float64, error) {
	if len(input) == 0 {
		return 0, fmt.Errorf("nn: empty window input")
	}
	if err := n.validateSeq(input); err != nil {
		return 0, err
	}
	if target < 0 || target >= n.cfg.InputSize {
		return 0, fmt.Errorf("nn: window target %d outside vocab %d", target, n.cfg.InputSize)
	}
	steps := len(input)
	caches := make([]stepCache, steps)
	st := n.lstm.NewState()
	var h tensor.Vector
	for t := 0; t < steps; t++ {
		h = n.lstm.Step(st, input[t], &caches[t])
	}
	dropped := h.Clone()
	mask, err := Dropout(dropped, n.cfg.DropoutRate, n.rng)
	if err != nil {
		return 0, err
	}
	logits := n.dense.Forward(dropped)
	_, loss, dLogits, err := SoftmaxCrossEntropy(logits, target)
	if err != nil {
		return 0, err
	}
	dh := n.dense.Backward(dropped, dLogits)
	DropoutBackward(dh, mask)

	dC := tensor.NewVector(n.cfg.HiddenSize)
	dH := dh
	for t := steps - 1; t >= 0; t-- {
		dH, dC = n.lstm.backwardStep(&caches[t], dH, dC)
	}
	return loss, nil
}
