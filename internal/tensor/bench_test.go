package tensor

import (
	"fmt"
	"testing"

	"stellaris/internal/rng"
)

func benchMats(n int) (*Mat, *Mat, *Mat) {
	r := rng.New(1)
	a, b := randMat(r, n, n), randMat(r, n, n)
	return NewMat(n, n), a, b
}

func BenchmarkMatMul64(b *testing.B) {
	dst, x, y := benchMats(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	dst, x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulABT256(b *testing.B) {
	dst, x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABT(dst, x, y)
	}
}

func BenchmarkIm2Col44(b *testing.B) {
	s := ConvShape{InC: 3, InH: 44, InW: 44, OutC: 16, KH: 8, KW: 8, Stride: 4}
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
	input := make([]float64, s.InSize())
	cols := NewMat(s.OutH*s.OutW, s.PatchSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Im2Col(cols, input)
	}
}

func BenchmarkDot4096(b *testing.B) {
	r := rng.New(2)
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i], y[i] = r.NormFloat64(), r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

// atLevel runs b's loop on kernel path l of levels, skipping where have
// is false.
func atLevel(b *testing.B, l int, have bool, loop func()) {
	if !have {
		b.Skipf("not in use on this CPU: %s", levelsInUse())
	}
	defer setLevel(levels[l].avx512, levels[l].avx2)()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop()
	}
}

// benchKernel times one product at every shape of kernelShapes at each
// kernel level, skipping a level the CPU lacks: `go test -bench MatMul`
// here is the kernel rung of the benchmark ladder, A/B, on any box, and
// reads the same products as the ladder's tensor.matmul_us /
// matmul_abt_us / matmul_atb_us. operands builds dst, x, y for an m, k,
// n.
func benchKernel(b *testing.B, kernel func(dst, x, y *Mat), operands func(r *rng.RNG, m, k, n int) (dst, x, y *Mat)) {
	r := rng.New(1)
	for _, s := range kernelShapes {
		dst, x, y := operands(r, s[0], s[1], s[2])
		have := [len(levels)]bool{useAVX512, useAVX2, true}
		for i, l := range levels {
			b.Run(fmt.Sprintf("%dx%d·%d/%s", s[0], s[1], s[2], l.name), func(b *testing.B) {
				atLevel(b, i, have[i], func() { kernel(dst, x, y) })
			})
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchKernel(b, MatMul, func(r *rng.RNG, m, k, n int) (dst, x, y *Mat) {
		return NewMat(m, n), randMat(r, m, k), randMat(r, k, n)
	})
}

func BenchmarkMatMulATB(b *testing.B) {
	benchKernel(b, MatMulATB, func(r *rng.RNG, m, k, n int) (dst, x, y *Mat) {
		return NewMat(k, n), randMat(r, m, k), randMat(r, m, n)
	})
}

func BenchmarkMatMulABT(b *testing.B) {
	benchKernel(b, MatMulABT, func(r *rng.RNG, m, k, n int) (dst, x, y *Mat) {
		return NewMat(m, n), randMat(r, m, k), randMat(r, n, k)
	})
}

// BenchmarkMatMulABTPack is MatMulABT as a layer's forward runs it,
// bias and all: on bᵀ transposed for the call, the bias added in the
// tile, where PackPays, else on b as it lies and then AddBiasRows.
func BenchmarkMatMulABTPack(b *testing.B) {
	var bt *Mat
	var bias []float64
	benchKernel(b, func(dst, x, y *Mat) {
		if len(bias) != y.Rows {
			bias = NewVec(y.Rows)
		}
		if !PackPays(x.Rows, x.Rows, y.Rows) {
			MatMulABT(dst, x, y)
			AddBiasRows(dst, bias)
			return
		}
		if bt == nil || bt.Rows != y.Cols || bt.Cols != y.Rows {
			bt = NewMat(y.Cols, y.Rows)
		}
		Transpose(bt, y)
		MatMulABTPacked(dst, x, bt, bias)
	}, func(r *rng.RNG, m, k, n int) (dst, x, y *Mat) {
		return NewMat(m, n), randMat(r, m, k), randMat(r, n, k)
	})
}

// BenchmarkTanh times TanhInto on one Act layer (64 values) and on one
// 128 x 64 batch, with N(0, σ) inputs: σ = 0.2 is a fresh policy (all
// rational arm), 1 a trained one (half the inputs reach math.Exp) and 3
// mostly the exp arm. /avx512 and /avx2 are the kernels (skipped where
// not in use), /go the math.Tanh loop; ns/elem is the activation rung,
// A/B, on any box.
func BenchmarkTanh(b *testing.B) {
	r := rng.New(1)
	for _, n := range []int{64, 8192} {
		for _, sigma := range []float64{0.2, 1, 3} {
			src, dst := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = sigma * r.NormFloat64()
			}
			have := [len(levels)]bool{useAVX512 && tanh512OK, useAVX2 && tanhOK, true}
			for i, l := range levels {
				b.Run(fmt.Sprintf("%d/σ=%v/%s", n, sigma, l.name), func(b *testing.B) {
					atLevel(b, i, have[i], func() { TanhInto(dst, src) })
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
	}
}

// BenchmarkABTPackRows times MatMulABT's two forms at the weight shapes
// k x n the workloads forward through (hopper's 64 x 64 and 11 x 64,
// cartpole's 256 x 256 and 4 x 256, the frame-20 CNN's 192 x 16,
// 256 x 32 and 32 x 256), and at narrow heads (64 x 6, 64 x 4, 64 x 1),
// over m rows: /dot is the product on b as it lies (MatMulABT), /pack
// transposes b and runs the tile (a layer's forward where PackPays),
// /packed is the tile on a bᵀ packed beforehand (a layer packed for a
// rollout). packRows is the m from which /pack is no slower than /dot
// at every shape 8 columns wide or more.
func BenchmarkABTPackRows(b *testing.B) {
	r := rng.New(1)
	shapes := [][2]int{{64, 64}, {11, 64}, {256, 256}, {4, 256}, {192, 16}, {256, 32}, {32, 256}, {64, 6}, {64, 4}, {64, 1}}
	for _, kn := range shapes {
		k, n := kn[0], kn[1]
		w, wt := randMat(r, n, k), NewMat(k, n)
		Transpose(wt, w)
		for _, m := range []int{1, 8, 16, 20, 24, 28, 32, 64} {
			a, dst := randMat(r, m, k), NewMat(m, n)
			have := [len(levels)]bool{useAVX512, useAVX2, true}
			for i, l := range levels {
				name := fmt.Sprintf("%dx%d·%d/%s", m, k, n, l.name)
				b.Run(name+"/dot", func(b *testing.B) { atLevel(b, i, have[i], func() { MatMulABT(dst, a, w) }) })
				b.Run(name+"/pack", func(b *testing.B) {
					atLevel(b, i, have[i], func() {
						Transpose(wt, w)
						MatMulABTPacked(dst, a, wt, nil)
					})
				})
				b.Run(name+"/packed", func(b *testing.B) { atLevel(b, i, have[i], func() { MatMulABTPacked(dst, a, wt, nil) }) })
			}
		}
	}
}

// BenchmarkTranspose times the pack alone at the same weight shapes.
func BenchmarkTranspose(b *testing.B) {
	r := rng.New(1)
	for _, kn := range [][2]int{{64, 64}, {11, 64}, {256, 256}, {4, 256}, {192, 16}, {256, 32}, {32, 256}} {
		k, n := kn[0], kn[1]
		w, wt := randMat(r, n, k), NewMat(k, n)
		have := [len(levels)]bool{useAVX512, useAVX2, true}
		for i, l := range levels {
			b.Run(fmt.Sprintf("%dx%d/%s", n, k, l.name), func(b *testing.B) {
				atLevel(b, i, have[i], func() { Transpose(wt, w) })
			})
		}
	}
}

// elementwiseShapes are the activation and bias-gradient shapes the
// workloads run: a 128 x 256 and a 512 x 64 learner batch, an actor's
// 1 x 256 and one sample of the frame-20 CNN's second layer, 1 x 32.
var elementwiseShapes = [][2]int{{128, 256}, {1, 256}, {1, 32}, {512, 64}}

// BenchmarkReLU times ReLU's forward (ReLUMask with g = x) and backward
// at every level, N(0, 1) inputs (half of them negative, so that the
// Go loop's branch mispredicts as it does in a ReLU layer); /go is the
// loop the layer ran before the kernels, at every level.
func BenchmarkReLU(b *testing.B) {
	for _, pass := range []struct {
		name string
		run  func(dst, g, x []float64)
	}{
		{"forward", func(dst, _, x []float64) { ReLUMask(dst, x, x) }},
		{"backward", ReLUMask},
	} {
		r := rng.New(1)
		for _, s := range elementwiseShapes {
			g, x, dst := randMat(r, s[0], s[1]), randMat(r, s[0], s[1]), make([]float64, s[0]*s[1])
			have := [len(levels)]bool{useAVX512, useAVX2, true}
			for i, l := range levels {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", pass.name, s[0], s[1], l.name), func(b *testing.B) {
					atLevel(b, i, have[i], func() { pass.run(dst, g.Data, x.Data) })
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/elem")
				})
			}
		}
	}
}

// BenchmarkSumRows times a bias gradient, the column sums of a batch
// of output gradients into a row as wide (ns/elem is per summed
// element). It is a Go loop at every level.
func BenchmarkSumRows(b *testing.B) {
	r := rng.New(1)
	for _, s := range elementwiseShapes {
		m, dst := randMat(r, s[0], s[1]), make([]float64, s[1])
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SumRows(dst, m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(m.Data)), "ns/elem")
		})
	}
}
