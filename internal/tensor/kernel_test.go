package tensor

import (
	"fmt"
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
// run: an actor's batch-1 forward, the async and DES trunk batches, one
// sample of the frame-20 CNN's first convolution, and the first and
// last layers of the hopper policy (11 observations in, 6 distribution
// parameters out), whose k and n are no multiple of 4.
var kernelShapes = [][3]int{
	{1, 64, 64}, {128, 64, 64}, {512, 64, 64}, {16, 192, 16},
	{1, 11, 64}, {1, 64, 6}, {128, 11, 64},
}

// canary is what surrounds every operand of the kernel tests in its
// backing array: a NaN no arithmetic produces, compared by bits.
var canary = math.Float64frombits(0x7ff8dead0000beef)

const guard = 8 // canary elements after an operand; 1…7 of them before it

// guardedMat returns a rows x cols matrix that starts off elements into
// a canary-filled array (odd offsets, so no row of it is 16- or 32-byte
// aligned) and that array, for requireCanaries.
func guardedMat(rows, cols, off int) (*Mat, []float64) {
	back := make([]float64, off+rows*cols+guard)
	for i := range back {
		back[i] = canary
	}
	return MatFrom(rows, cols, back[off:off+rows*cols:off+rows*cols]), back
}

func requireCanaries(t *testing.T, what string, m, k, n int, back []float64, off, size int) {
	t.Helper()
	for i, v := range back {
		if (i < off || i >= off+size) && math.Float64bits(v) != math.Float64bits(canary) {
			t.Fatalf("%s %dx%dx%d: wrote %v at element %d of dst's backing array, outside [%d, %d)",
				what, m, k, n, v, i, off, off+size)
		}
	}
}

// Value mixes of the kernel tests.
const (
	dense   = iota // normal deviates
	sparse         // a third exact zeros of either sign: what a ReLU leaves in a gradient
	special        // ±0, denormals, ±Inf and NaN among normal deviates
	numMixes
)

var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1040, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 1, -1,
}

func fillMix(r *rng.RNG, data []float64, mix int) {
	for i := range data {
		data[i] = r.NormFloat64()
		switch {
		case mix == sparse && r.Intn(6) == 0:
			data[i] = 0
		case mix == sparse && r.Intn(5) == 0:
			data[i] = math.Copysign(0, -1)
		case mix == special && r.Intn(4) == 0:
			data[i] = specials[r.Intn(len(specials))]
		}
	}
}

// requireSameBits compares got with the scalar reference by bits, and by
// NaN-ness where the reference is NaN (which NaN a product of two NaNs
// is depends on operand order, which no kernel promises).
func requireSameBits(t *testing.T, what string, m, k, n int, got, want *Mat) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s %dx%dx%d: element %d = %v (%#x), reference %v (%#x)", what, m, k, n, i,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// requireKernelsMatch runs the three products at one shape on operands
// of the given mix, each a sub-slice at an odd offset (offs picks them)
// of a larger array, and holds the results to the scalar loops' bits
// and dst's surroundings to their canaries: the assembly may not store
// outside its n, and the race detector would not see it if it did.
func requireKernelsMatch(t *testing.T, r *rng.RNG, m, k, n, mix, offs int) {
	t.Helper()
	off := func(i int) int { return 1 + 2*(offs>>(2*i)&3) }
	got, back := guardedMat(m, n, off(0))
	want := NewMat(m, n)
	a, _ := guardedMat(m, k, off(1))
	at, _ := guardedMat(k, m, off(2))
	b, _ := guardedMat(k, n, off(3))
	bt, _ := guardedMat(n, k, off(4))
	for _, x := range []*Mat{got, a, at, b, bt} { // got starts dirty: kernels must overwrite
		fillMix(r, x.Data, mix)
	}
	if mix == sparse && len(a.Data) > 0 && len(b.Data) > 0 {
		// A non-finite b under a zero coefficient must stay out of dst.
		a.Data[r.Intn(len(a.Data))], at.Data[r.Intn(len(at.Data))] = 0, 0
		b.Data[r.Intn(len(b.Data))] = math.Inf(1)
	}
	for _, p := range []struct {
		what        string
		kernel, ref func(dst, a, b *Mat)
		a, b        *Mat
	}{
		{"MatMul", MatMul, refMatMul, a, b},
		{"MatMulATB", MatMulATB, refMatMulATB, at, b},
		{"MatMulABT", MatMulABT, refMatMulABT, a, bt},
	} {
		p.kernel(got, p.a, p.b)
		p.ref(want, p.a, p.b)
		requireSameBits(t, p.what, m, k, n, got, want)
		requireCanaries(t, p.what, m, k, n, back, off(0), m*n)
	}
}

// bothKernelPaths runs f with useAVX2 as detected and again with it
// forced off, so that assembly ≡ tiled Go ≡ scalar reference.
func bothKernelPaths(t *testing.T, f func(t *testing.T)) {
	bothPaths(t, useAVX2, "no AVX2 on this CPU (or this GOARCH): the Go kernels are the only path here", f)
}

// bothPaths is bothKernelPaths for a kernel that is in use only when
// have is true; its avx2 leg skips, giving why, when it is not.
func bothPaths(t *testing.T, have bool, why string, f func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		if !have {
			t.Skip(why)
		}
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		defer func(was bool) { useAVX2 = was }(useAVX2)
		useAVX2 = false
		f(t)
	})
}

// TestKernelsBitIdenticalToScalarLoops holds the kernels' contract on
// both paths: the same bits as the scalar reference at every m, k, n in
// 0…9 under every value mix (every k mod 4, n mod 4 and mod 8, m mod 3
// and mod 4 tail, nonzero-count mod 4, and the empty products), at random
// shapes up to 19 and three long thin ones (a chunk boundary at 32 rows),
// and at the shapes the workloads run.
func TestKernelsBitIdenticalToScalarLoops(t *testing.T) {
	bothKernelPaths(t, func(t *testing.T) {
		r := rng.New(14)
		for m := 0; m <= 9; m++ {
			for k := 0; k <= 9; k++ {
				for n := 0; n <= 9; n++ {
					for mix := 0; mix < numMixes; mix++ {
						requireKernelsMatch(t, r, m, k, n, mix, r.Intn(1<<10))
					}
				}
			}
		}
		shapes := append([][3]int{}, kernelShapes...)
		shapes = append(shapes, [3]int{70, 5, 3}, [3]int{3, 70, 5}, [3]int{5, 3, 70})
		for len(shapes) < 320 {
			shapes = append(shapes, [3]int{1 + r.Intn(19), 1 + r.Intn(19), 1 + r.Intn(19)})
		}
		for trial, s := range shapes {
			requireKernelsMatch(t, r, s[0], s[1], s[2], trial%numMixes, r.Intn(1<<10))
		}
	})
}

// FuzzKernels is the same assertion with the shape, the operands'
// offsets, the value mix and the values' seed taken from the fuzz input.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint8(dense), uint16(0), uint64(1))
	f.Fuzz(func(t *testing.T, m, k, n, mix uint8, offs uint16, seed uint64) {
		bothKernelPaths(t, func(t *testing.T) {
			requireKernelsMatch(t, rng.New(seed), int(m%48), int(k%80), int(n%48), int(mix%numMixes), int(offs))
		})
	})
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

// Value mixes of the tanh tests: the first two are what a policy's
// pre-activations look like early and late in training, the next two
// reach every arm of math.Tanh including saturation, and the last is
// every float64 there is, NaNs of every payload among them.
const (
	tanhNarrow  = iota // N(0, 0.3)
	tanhUnit           // N(0, 1)
	tanhU5             // U(-5, 5)
	tanhU50            // U(-50, 50)
	tanhAnyBits        // uniformly random bit patterns
	numTanhMixes
)

func fillTanhMix(r *rng.RNG, data []float64, mix int) {
	for i := range data {
		switch mix {
		case tanhNarrow:
			data[i] = 0.3 * r.NormFloat64()
		case tanhUnit:
			data[i] = r.NormFloat64()
		case tanhU5:
			data[i] = 10*r.Float64() - 5
		case tanhU50:
			data[i] = 100*r.Float64() - 50
		default:
			data[i] = math.Float64frombits(r.Uint64())
		}
	}
}

// tanhSpecials are both signs of every branch point of math.Tanh and of
// both its float64 neighbours, and the values at the ends of the range.
var tanhSpecials = func() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	s := []float64{
		0, math.Inf(1), math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64, 709, 710,
		math.Float64frombits(0x7ff8000000c0ffee), math.Float64frombits(0x7ff4000000000bad), // a quiet and a signalling NaN
	}
	for _, edge := range []float64{0.625, halfMaxLog} {
		s = append(s, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
	}
	for _, v := range s {
		s = append(s, -v)
	}
	return s
}()

// requireTanhBits holds got to math.Tanh of src bit for bit, NaN lanes
// included: which NaN tanh returns for a NaN is part of what the
// kernel reproduces.
func requireTanhBits(t *testing.T, got, src []float64) {
	t.Helper()
	for i, x := range src {
		if g, w := math.Float64bits(got[i]), math.Float64bits(math.Tanh(x)); g != w {
			t.Fatalf("TanhInto, %d elements: element %d = tanh(%v (%#x)) = %#x, math.Tanh gives %#x",
				len(src), i, x, math.Float64bits(x), g, w)
		}
	}
}

// requireTanhMatches runs TanhInto on n values of the given mix, src and
// dst sub-slices at odd offsets of canary-filled arrays, then again in
// place, and holds the results to math.Tanh's bits and both sides of
// dst to their canaries.
func requireTanhMatches(t *testing.T, r *rng.RNG, n, mix, offs int) {
	t.Helper()
	offDst, offSrc := 1+2*(offs&3), 1+2*(offs>>2&3)
	dst, back := guardedMat(1, n, offDst)
	src, srcBack := guardedMat(1, n, offSrc)
	fillTanhMix(r, src.Data, mix)
	fillTanhMix(r, dst.Data, mix) // dst starts dirty: the kernel must overwrite
	want := append([]float64(nil), src.Data...)
	TanhInto(dst.Data, src.Data)
	requireTanhBits(t, dst.Data, want)
	requireCanaries(t, "TanhInto", 1, 1, n, back, offDst, n)
	for i, w := range want {
		if math.Float64bits(src.Data[i]) != math.Float64bits(w) {
			t.Fatalf("TanhInto, %d elements: wrote %v over element %d of src", n, src.Data[i], i)
		}
	}
	TanhInto(src.Data, src.Data)
	requireTanhBits(t, src.Data, want)
	requireCanaries(t, "TanhInto in place", 1, 1, n, srcBack, offSrc, n)
}

func bothTanhPaths(t *testing.T, f func(t *testing.T)) {
	bothPaths(t, useAVX2 && tanhOK, fmt.Sprintf("the tanh kernel is not in use here (useAVX2 %v, tanhOK %v): math.Tanh is the only path",
		useAVX2, tanhOK), f)
}

// TestTanhBitIdenticalToMath holds TanhInto's contract on both paths:
// math.Tanh's bits over a million values of every mix, over the
// specials in every lane, at every length around the kernel/tail split
// with unaligned operands between canaries, and in place.
func TestTanhBitIdenticalToMath(t *testing.T) {
	bothTanhPaths(t, func(t *testing.T) {
		r := rng.New(21)
		src, dst := make([]float64, 1<<20), make([]float64, 1<<20)
		for mix := 0; mix < numTanhMixes; mix++ {
			fillTanhMix(r, src, mix)
			TanhInto(dst, src)
			requireTanhBits(t, dst, src)
		}
		for lane := 0; lane < 4; lane++ { // every special in every lane, and in the tail
			in := tanhSpecials[lane:]
			TanhInto(dst, in)
			requireTanhBits(t, dst, in)
		}
		for _, span := range [][2]int{{0, 9}, {61, 67}} {
			for n := span[0]; n <= span[1]; n++ {
				for mix := 0; mix < numTanhMixes; mix++ {
					for offs := 0; offs < 16; offs++ {
						requireTanhMatches(t, r, n, mix, offs)
					}
				}
			}
		}
	})
}

func TestTanhIntoShortDstPanics(t *testing.T) {
	bothTanhPaths(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("TanhInto with len(dst) < len(src) did not panic")
			}
		}()
		TanhInto(make([]float64, 7, 8), make([]float64, 8))
	})
}

// FuzzTanh is the same assertion with the length, the operands'
// offsets, the value mix and the values' seed taken from the fuzz input.
func FuzzTanh(f *testing.F) {
	f.Add(uint16(8), uint8(0), uint8(tanhUnit), uint64(1))
	f.Fuzz(func(t *testing.T, n uint16, offs, mix uint8, seed uint64) {
		bothTanhPaths(t, func(t *testing.T) {
			requireTanhMatches(t, rng.New(seed), int(n%600), int(mix%numTanhMixes), int(offs))
		})
	})
}
