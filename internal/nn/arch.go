package nn

import (
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// MLPTrunk builds the paper's MuJoCo trunk (Table II) on s: two fully
// connected layers of `hidden` units with Tanh activations.
func MLPTrunk(s *Slab, inDim, hidden int, r *rng.RNG) *Network {
	return NewNetwork(s, inDim,
		NewDense(s, inDim, hidden, r),
		NewTanh(),
		NewDense(s, hidden, hidden, r),
		NewTanh(),
	)
}

// MLPSize is the parameter count of MLPTrunk(inDim, hidden) under an
// outDim-wide head: the Slab it takes. It and CNNSize list the layers
// their trunks build; algo.NewModelHidden panics if a trunk and its
// size disagree.
func MLPSize(inDim, hidden, outDim int) int {
	return DenseSize(inDim, hidden) + DenseSize(hidden, hidden) + DenseSize(hidden, outDim)
}

// CNNSize is the parameter count of CNNTrunk(channels, height, width)
// under an outDim-wide head: the Slab it takes.
func CNNSize(channels, height, width, outDim int) int {
	c1, c2 := cnnShapes(channels, height, width)
	return ConvSize(c1) + ConvSize(c2) + DenseSize(c2.OutSize(), cnnHidden) + DenseSize(cnnHidden, outDim)
}

// cnnHidden is the width of CNNTrunk's dense stage.
const cnnHidden = 256

// cnnShapes are CNNTrunk's two convolutions over a channels x height x
// width frame.
func cnnShapes(channels, height, width int) (c1, c2 tensor.ConvShape) {
	c1 = tensor.ConvShape{InC: channels, InH: height, InW: width, OutC: 16, KH: 8, KW: 8, Stride: 4}
	if err := c1.Validate(); err != nil {
		panic(err)
	}
	c2 = tensor.ConvShape{InC: 16, InH: c1.OutH, InW: c1.OutW, OutC: 32, KH: 4, KW: 4, Stride: 2}
	if err := c2.Validate(); err != nil {
		panic(err)
	}
	return c1, c2
}

// CNNTrunk builds the paper's Atari trunk (Table II) on s: 16 filters of 8x8
// stride 4, 32 filters of 4x4 stride 2 (both ReLU), then a 256-unit dense
// layer. The paper's third row reads "256, 11x11"; on an 84x84 input the
// post-conv spatial extent is 9x9, so — as in the original DQN family the
// table paraphrases — the 256-unit stage is implemented as a dense layer
// over the flattened 32-channel map.
func CNNTrunk(s *Slab, channels, height, width int, r *rng.RNG) *Network {
	c1, c2 := cnnShapes(channels, height, width)
	return NewNetwork(s, channels*height*width,
		NewConv2D(s, c1, r),
		NewReLU(),
		NewConv2D(s, c2, r),
		NewReLU(),
		NewDense(s, c2.OutSize(), cnnHidden, r),
		NewReLU(),
	)
}

// WithHead appends a linear output head of width outDim (gain-scaled for
// policy heads), built on the trunk's Slab, to a trunk and returns the
// combined network. The trunk's layers are shared by reference; callers
// own the result exclusively.
func WithHead(trunk *Network, outDim int, gain float64, r *rng.RNG) *Network {
	layers := make([]Layer, len(trunk.Layers), len(trunk.Layers)+1)
	copy(layers, trunk.Layers)
	layers = append(layers, NewDenseScaled(trunk.slab, trunk.OutDim(), outDim, gain, r))
	return NewNetwork(trunk.slab, trunk.InDim(), layers...)
}
