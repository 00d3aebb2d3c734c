package tensor

import (
	"math"
	"testing"

	"stellaris/internal/rng"
)

// The scalar loops MatMul, MatMulATB and MatMulABT were before they were
// tiled, kept verbatim as the reference: the tiled kernels must return
// the same bits, because every golden, results/*.txt file, lockstep
// weight hash and DES tuple hash in the repo was produced by these.

func refMatMul(dst, a, b *Mat) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

func refMatMulATB(dst, a, b *Mat) {
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, aki := range arow {
			if aki == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := range brow {
				drow[j] += aki * brow[j]
			}
		}
	}
}

func refMatMulABT(dst, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

// kernelShapes are the m, k, n of the products the benchmark workloads
// run: an actor's batch-1 forward, the async and DES trunk batches, and
// one sample of the frame-20 CNN's first convolution.
var kernelShapes = [][3]int{{1, 64, 64}, {128, 64, 64}, {512, 64, 64}, {16, 192, 16}}

// sparseMat is randMat with about a third of the entries exactly zero
// (what a ReLU leaves in a gradient), some of them negative zero.
func sparseMat(r *rng.RNG, rows, cols int) *Mat {
	m := randMat(r, rows, cols)
	for i := range m.Data {
		switch r.Intn(6) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

func requireSameBits(t *testing.T, what string, m, k, n int, got, want *Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s %dx%dx%d: element %d = %v (%#x), reference %v (%#x)", what, m, k, n, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestKernelsBitIdenticalToScalarLoops holds the kernels' contract: the
// same bits as the scalar reference on every tile remainder (each
// dimension 1…19, so every m mod 3, n mod 2, n mod 4, nonzero-count mod 4
// and a chunk boundary at 32 rows), with exact zeros in a (the reference
// skips them), with a non-finite b under a zero coefficient, and on the
// shapes the workloads run.
func TestKernelsBitIdenticalToScalarLoops(t *testing.T) {
	r := rng.New(14)
	shapes := append([][3]int{}, kernelShapes...)
	shapes = append(shapes, [3]int{70, 5, 3}, [3]int{3, 70, 5}, [3]int{5, 3, 70})
	for len(shapes) < 320 {
		shapes = append(shapes, [3]int{1 + r.Intn(19), 1 + r.Intn(19), 1 + r.Intn(19)})
	}
	for trial, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		gen := randMat
		if trial%2 == 1 {
			gen = sparseMat
		}
		got, want := randMat(r, m, n), NewMat(m, n) // got starts dirty: kernels must overwrite

		a, b := gen(r, m, k), randMat(r, k, n)
		if trial%8 == 1 {
			a.Data[r.Intn(len(a.Data))] = 0
			b.Data[r.Intn(len(b.Data))] = math.Inf(1)
		}
		MatMul(got, a, b)
		refMatMul(want, a, b)
		requireSameBits(t, "MatMul", m, k, n, got, want)

		at := gen(r, k, m)
		MatMulATB(got, at, b)
		refMatMulATB(want, at, b)
		requireSameBits(t, "MatMulATB", m, k, n, got, want)

		bt := gen(r, n, k)
		MatMulABT(got, a, bt)
		refMatMulABT(want, a, bt)
		requireSameBits(t, "MatMulABT", m, k, n, got, want)
	}
}

func TestKernelsEmptyInnerDimension(t *testing.T) {
	dst := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	MatMulABT(dst, NewMat(2, 0), NewMat(3, 0))
	MatMul(dst, NewMat(2, 0), NewMat(0, 3))
	MatMulATB(dst, NewMat(0, 2), NewMat(0, 3))
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("element %d = %v after an empty product, want 0", i, v)
		}
	}
}
