package nn

import (
	"testing"

	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// BenchmarkMLPForwardBackward measures the paper's MuJoCo trunk (2x256
// Tanh) on one 256-sample batch — the learner function's inner loop.
func BenchmarkMLPForwardBackward(b *testing.B) {
	r := rng.New(1)
	s := NewSlab(MLPSize(11, 256, 6))
	net := NewNetwork(s, 11,
		NewDense(s, 11, 256, r), NewTanh(),
		NewDense(s, 256, 256, r), NewTanh(),
		NewDense(s, 256, 6, r),
	)
	in := randIn(r, 256, 11)
	dOut := tensor.NewMat(256, 6)
	for i := range dOut.Data {
		dOut.Data[i] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		net.Forward(in)
		net.Backward(dOut)
	}
}

// BenchmarkCNNForwardBackward measures the Table II Atari trunk at the
// reduced 20x20 frame on an 8-sample batch.
func BenchmarkCNNForwardBackward(b *testing.B) {
	r := rng.New(2)
	net := CNNTrunk(NewSlab(CNNSize(3, 20, 20, 0)), 3, 20, 20, r)
	in := randIn(r, 8, net.InDim())
	dOut := tensor.NewMat(8, net.OutDim())
	for i := range dOut.Data {
		dOut.Data[i] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		net.Forward(in)
		net.Backward(dOut)
	}
}
