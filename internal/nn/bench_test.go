package nn

import (
	"fmt"
	"testing"

	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// BenchmarkMLPForwardBackward measures one learner pass through a
// hopper MLP (11 observations in, 6 distribution parameters out, Tanh
// between): the paper's MuJoCo trunk (2x256) on a 256-sample batch, and
// the des_sweep learner's shape (2x64) on its 512-sample batch, whose
// products are the kernel benchmarks' 512x64·64, 512x6·64 and 512x64·11.
func BenchmarkMLPForwardBackward(b *testing.B) {
	for _, c := range []struct {
		name          string
		hidden, batch int
	}{{"2x256/batch256", 256, 256}, {"2x64/batch512", 64, 512}} {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			s := NewSlab(MLPSize(11, c.hidden, 6))
			net := NewNetwork(s, 11,
				NewDense(s, 11, c.hidden, r), NewTanh(),
				NewDense(s, c.hidden, c.hidden, r), NewTanh(),
				NewDense(s, c.hidden, 6, r),
			)
			in := randIn(r, c.batch, 11)
			dOut := tensor.NewMat(c.batch, 6)
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
		})
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

// BenchmarkTanhBackward times Tanh's backward, g·(1 − y²), at the
// workloads' activation shapes: a 128 x 256 and a 512 x 64 learner
// batch, an actor's 1 x 256 and 1 x 32 (ns/elem is per element).
func BenchmarkTanhBackward(b *testing.B) {
	r := rng.New(3)
	for _, s := range [][2]int{{128, 256}, {1, 256}, {1, 32}, {512, 64}} {
		t := NewTanh()
		t.Forward(randIn(r, s[0], s[1]))
		g := randIn(r, s[0], s[1])
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Backward(g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Data)), "ns/elem")
		})
	}
}
