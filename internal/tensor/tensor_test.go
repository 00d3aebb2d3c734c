package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"stellaris/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randMat(r *rng.RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// naiveMul is the reference O(n³) matmul.
func naiveMul(a, b *Mat) *Mat {
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b := randMat(r, m, k), randMat(r, k, n)
		got := NewMat(m, n)
		MatMul(got, a, b)
		want := naiveMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("trial %d: MatMul mismatch at %d: %v vs %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func transpose(m *Mat) *Mat {
	tr := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			tr.Set(j, i, m.At(i, j))
		}
	}
	return tr
}

func TestMatMulATBEqualsTransposedMul(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		k, m, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := randMat(r, k, m), randMat(r, k, n)
		got := NewMat(m, n)
		MatMulATB(got, a, b)
		want := naiveMul(transpose(a), b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("ATB mismatch at %d", i)
			}
		}
	}
}

func TestMatMulABTEqualsMulTransposed(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := randMat(r, m, k), randMat(r, n, k)
		got := NewMat(m, n)
		MatMulABT(got, a, b)
		want := naiveMul(a, transpose(b))
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("ABT mismatch at %d", i)
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 3))
}

func TestDotAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	Scale(0.5, y)
	for i := range y {
		if y[i] != want[i]/2 {
			t.Fatalf("Scale[%d] = %v", i, y[i])
		}
	}
}

func TestNorm2AndClip(t *testing.T) {
	x := []float64{3, 4}
	if got := Norm2(x); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	orig := ClipNorm(x, 1)
	if orig != 5 {
		t.Fatalf("ClipNorm returned %v, want 5", orig)
	}
	if !almostEq(Norm2(x), 1, 1e-12) {
		t.Fatalf("post-clip norm %v", Norm2(x))
	}
	// maxNorm <= 0 disables clipping.
	y := []float64{3, 4}
	ClipNorm(y, 0)
	if Norm2(y) != 5 {
		t.Fatal("ClipNorm(0) should not rescale")
	}
}

func TestClipNormUnderLimitUnchanged(t *testing.T) {
	x := []float64{0.1, 0.2}
	before := append([]float64(nil), x...)
	ClipNorm(x, 10)
	for i := range x {
		if x[i] != before[i] {
			t.Fatal("ClipNorm rescaled a vector under the limit")
		}
	}
}

func TestMeanStdStandardize(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Mean(x); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Std(x); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Fatalf("Std = %v", got)
	}
	Standardize(x)
	if !almostEq(Mean(x), 0, 1e-12) || !almostEq(Std(x), 1, 1e-9) {
		t.Fatalf("Standardize gave mean %v std %v", Mean(x), Std(x))
	}
}

func TestStandardizeConstantInput(t *testing.T) {
	x := []float64{5, 5, 5}
	Standardize(x) // must not produce NaN
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Standardize of constant produced %v", v)
		}
	}
}

func TestSumRowsAddBias(t *testing.T) {
	m := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	SumRows(dst, m)
	want := []float64{5, 7, 9}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("SumRows[%d] = %v", i, dst[i])
		}
	}
	AddBiasRows(m, []float64{10, 20, 30})
	if m.At(0, 0) != 11 || m.At(1, 2) != 36 {
		t.Fatalf("AddBiasRows wrong: %v", m.Data)
	}
}

func TestZero(t *testing.T) {
	m := MatFrom(1, 2, []float64{1, 2})
	m.Zero()
	if m.Data[0] != 0 || m.Data[1] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestMeanEmptyIsZero(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty Mean/Std should be 0")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// TestMatMulAssociativityProperty checks (A·B)·C == A·(B·C) on random
// small matrices via testing/quick-driven dimensions.
func TestMatMulAssociativityProperty(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		m, k, l, n := 1+rr.Intn(5), 1+rr.Intn(5), 1+rr.Intn(5), 1+rr.Intn(5)
		a, b, c := randMat(r, m, k), randMat(r, k, l), randMat(r, l, n)
		ab := NewMat(m, l)
		MatMul(ab, a, b)
		abc1 := NewMat(m, n)
		MatMul(abc1, ab, c)
		bc := NewMat(k, n)
		MatMul(bc, b, c)
		abc2 := NewMat(m, n)
		MatMul(abc2, a, bc)
		for i := range abc1.Data {
			if !almostEq(abc1.Data[i], abc2.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
