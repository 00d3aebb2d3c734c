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

// benchKernel times one product at every shape of kernelShapes, on the
// assembly path (/avx2, skipped where the CPU has none) and on the Go
// path (/go): `go test -bench MatMul` here is the kernel rung of the
// benchmark ladder, A/B, on any box, and reads the same products as the
// ladder's tensor.matmul_us / matmul_abt_us / matmul_atb_us. operands
// builds dst, x, y for an m, k, n.
func benchKernel(b *testing.B, kernel func(dst, x, y *Mat), operands func(r *rng.RNG, m, k, n int) (dst, x, y *Mat)) {
	r := rng.New(1)
	for _, s := range kernelShapes {
		dst, x, y := operands(r, s[0], s[1], s[2])
		for _, path := range []string{"avx2", "go"} {
			b.Run(fmt.Sprintf("%dx%d·%d/%s", s[0], s[1], s[2], path), func(b *testing.B) {
				if path == "avx2" && !useAVX2 {
					b.Skip("no AVX2 on this CPU")
				}
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = path == "avx2"
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel(dst, x, y)
				}
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

// BenchmarkTanh times TanhInto on one Act layer (64 values) and on one
// 128 x 64 batch, with N(0, σ) inputs: σ = 0.2 is a fresh policy (all
// rational arm), 1 a trained one (half the inputs reach math.Exp) and 3
// mostly the exp arm. /avx2 is the kernel (skipped where it is not in
// use), /go the math.Tanh loop; ns/elem is the activation rung, A/B, on
// any box.
func BenchmarkTanh(b *testing.B) {
	r := rng.New(1)
	for _, n := range []int{64, 8192} {
		for _, sigma := range []float64{0.2, 1, 3} {
			src, dst := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = sigma * r.NormFloat64()
			}
			for _, path := range []string{"avx2", "go"} {
				b.Run(fmt.Sprintf("%d/σ=%v/%s", n, sigma, path), func(b *testing.B) {
					if path == "avx2" && !(useAVX2 && tanhOK) {
						b.Skip("the tanh kernel is not in use here")
					}
					defer func(was bool) { useAVX2 = was }(useAVX2)
					useAVX2 = path == "avx2"
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						TanhInto(dst, src)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
	}
}
