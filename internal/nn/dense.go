package nn

import (
	"fmt"
	"math"
	"math/rand"

	"misusedetect/internal/tensor"
)

// Dense is a fully connected layer y = Wx + b, used as the softmax output
// projection of the language models.
type Dense struct {
	InputSize  int
	OutputSize int
	W          *Param // OutputSize x InputSize
	B          *Param // 1 x OutputSize
}

// NewDense allocates and Xavier-initializes a dense layer.
func NewDense(inputSize, outputSize int, rng *rand.Rand) (*Dense, error) {
	if inputSize < 1 || outputSize < 1 {
		return nil, fmt.Errorf("nn: invalid dense shape in=%d out=%d", inputSize, outputSize)
	}
	d := &Dense{
		InputSize:  inputSize,
		OutputSize: outputSize,
		W:          NewParam("dense.w", outputSize, inputSize),
		B:          NewParam("dense.b", 1, outputSize),
	}
	tensor.XavierInit(d.W.W, inputSize, outputSize, rng)
	return d, nil
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes logits = W x + b.
func (d *Dense) Forward(x tensor.Vector) tensor.Vector {
	out := tensor.NewVector(d.OutputSize)
	d.ForwardInto(out, x)
	return out
}

// ForwardInto computes logits = W x + b into dst (len OutputSize) without
// allocating, the scratch-buffer variant of Forward.
func (d *Dense) ForwardInto(dst, x tensor.Vector) {
	copy(dst, d.B.W.Data)
	d.W.W.MulVecAdd(dst, x)
}

// Backward accumulates gradients given the input that produced the logits
// and dLogits, returning dX.
func (d *Dense) Backward(x, dLogits tensor.Vector) tensor.Vector {
	d.W.G.AddOuter(1, dLogits, x)
	for i, g := range dLogits {
		d.B.G.Data[i] += g
	}
	dx := tensor.NewVector(d.InputSize)
	d.W.W.MulVecTAdd(dx, dLogits)
	return dx
}

// SoftmaxCrossEntropy computes the softmax probabilities of logits and the
// cross-entropy loss against the target class; dLogits = probs - onehot is
// written into the returned gradient, the standard fused formulation.
func SoftmaxCrossEntropy(logits tensor.Vector, target int) (probs tensor.Vector, loss float64, dLogits tensor.Vector, err error) {
	if target < 0 || target >= len(logits) {
		return nil, 0, nil, fmt.Errorf("nn: target %d outside [0,%d)", target, len(logits))
	}
	probs = tensor.NewVector(len(logits))
	tensor.Softmax(probs, logits)
	p := probs[target]
	if p < 1e-300 {
		p = 1e-300
	}
	loss = -math.Log(p)
	dLogits = probs.Clone()
	dLogits[target] -= 1
	return probs, loss, dLogits, nil
}

// Dropout applies inverted dropout to x in place using the supplied rng:
// each unit is zeroed with probability rate and survivors are scaled by
// 1/(1-rate). It returns the mask so the backward pass can replay it.
// A nil rng or zero rate is the identity (inference mode).
func Dropout(x tensor.Vector, rate float64, rng *rand.Rand) (tensor.Vector, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate %v outside [0,1)", rate)
	}
	if rng == nil || rate == 0 {
		return nil, nil
	}
	mask := tensor.NewVector(len(x))
	scale := 1 / (1 - rate)
	for i := range x {
		if rng.Float64() < rate {
			mask[i] = 0
			x[i] = 0
		} else {
			mask[i] = scale
			x[i] *= scale
		}
	}
	return mask, nil
}

// DropoutBackward applies the saved mask to the gradient in place; a nil
// mask is the identity.
func DropoutBackward(dx tensor.Vector, mask tensor.Vector) {
	if mask == nil {
		return
	}
	for i := range dx {
		dx[i] *= mask[i]
	}
}
