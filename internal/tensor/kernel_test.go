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
// sample of the frame-20 CNN's first and second convolutions, and the
// first and last layers of the hopper policy (11 observations in, 6
// distribution parameters out), whose k and n are no multiple of 4. The
// next three are learner-pass products at the DES batch: the policy
// head's (as MatMulATB, a dst of 6 rows, no multiple of 4) and the
// first layer's weight gradient (as MatMulATB, 11 columns: a column
// tail under every tile). Then the DES batch's forwards through the
// policy head and the critic head (as MatMulABT, 6 columns and 1: no
// tile of 8 columns), and the frame-20 CNN's two convolutions over a
// learner's 128-sample batch (16 positions and 1 a sample).
var kernelShapes = [][3]int{
	{1, 64, 64}, {128, 64, 64}, {512, 64, 64}, {16, 192, 16},
	{1, 11, 64}, {1, 64, 6}, {128, 11, 64},
	{512, 6, 64}, {512, 64, 11}, {1, 32, 256},
	{512, 64, 6}, {512, 64, 1}, {1, 256, 32}, {2048, 192, 16}, {128, 256, 32},
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

// requireKernelsMatch runs the products at one shape on operands of the
// given mix, each a sub-slice at an odd offset (offs picks them) of a
// larger array, and holds the results to the scalar loops' bits and
// dst's surroundings to their canaries: the assembly may not store
// outside its n, and the race detector would not see it if it did.
// MatMulABTPacked runs on bᵀ as Transpose packs it, between canaries of
// its own, and the pack is held to the element-by-element transpose.
func requireKernelsMatch(t *testing.T, r *rng.RNG, m, k, n, mix, offs int) {
	t.Helper()
	off := func(i int) int { return 1 + 2*(offs>>(2*i)&3) }
	got, back := guardedMat(m, n, off(0))
	want := NewMat(m, n)
	a, _ := guardedMat(m, k, off(1))
	at, _ := guardedMat(k, m, off(2))
	b, _ := guardedMat(k, n, off(3))
	bt, _ := guardedMat(n, k, off(4))
	packed, packedBack := guardedMat(k, n, 1+2*(offs>>10&3))
	for _, x := range []*Mat{got, a, at, b, bt, packed} { // got and packed start dirty: kernels must overwrite
		fillMix(r, x.Data, mix)
	}
	if mix == sparse && len(a.Data) > 0 && len(b.Data) > 0 {
		// A non-finite b under a zero coefficient must stay out of dst.
		a.Data[r.Intn(len(a.Data))], at.Data[r.Intn(len(at.Data))] = 0, 0
		b.Data[r.Intn(len(b.Data))] = math.Inf(1)
	}
	Transpose(packed, bt)
	requireCanaries(t, "Transpose", m, k, n, packedBack, 1+2*(offs>>10&3), k*n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			if g, w := packed.At(p, j), bt.At(j, p); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Transpose of %dx%d: element (%d, %d) = %v (%#x), want %v (%#x)", n, k, p, j,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for _, p := range []struct {
		what        string
		kernel, ref func(dst, a, b *Mat)
		a, b, refB  *Mat
	}{
		{"MatMul", MatMul, refMatMul, a, b, b},
		{"MatMulATB", MatMulATB, refMatMulATB, at, b, b},
		{"MatMulABT", MatMulABT, refMatMulABT, a, bt, bt},
		{"MatMulABTPacked", MatMulABTPacked, refMatMulABT, a, packed, bt},
	} {
		p.kernel(got, p.a, p.b)
		p.ref(want, p.a, p.refB)
		requireSameBits(t, p.what, m, k, n, got, want)
		requireCanaries(t, p.what, m, k, n, back, off(0), m*n)
	}
}

// levels are the kernel paths every kernel test and benchmark runs, and
// the useAVX512 and useAVX2 that select each: the 512-bit kernels with
// the AVX2 ones taking what is left (/avx512), the AVX2 kernels alone
// (/avx2) and the Go kernels (/go).
var levels = [...]struct {
	name         string
	avx512, avx2 bool
}{{"avx512", true, true}, {"avx2", false, true}, {"go", false, false}}

// setLevel selects a kernel path and returns what restores the one init
// detected.
func setLevel(avx512, avx2 bool) (restore func()) {
	was512, was2 := useAVX512, useAVX2
	useAVX512, useAVX2 = avx512, avx2
	return func() { useAVX512, useAVX2 = was512, was2 }
}

// levelsInUse says which kernels init found in use in this process.
func levelsInUse() string {
	return fmt.Sprintf("useAVX512 %v, useAVX2 %v, tanh512OK %v, tanhOK %v", useAVX512, useAVX2, tanh512OK, tanhOK)
}

// eachKernelPath runs f on every kernel path this CPU has, so that each
// ≡ the scalar reference. A level the CPU lacks skips.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	eachPath(t, useAVX512, useAVX2, f)
}

// eachPath is eachKernelPath for a kernel that is in use at the avx512
// level only when have512 is true and at the avx2 level only when have2
// is.
func eachPath(t *testing.T, have512, have2 bool, f func(t *testing.T)) {
	have := [len(levels)]bool{have512, have2, true}
	for i, l := range levels {
		t.Run(l.name, func(t *testing.T) {
			if !have[i] {
				t.Skipf("the %s kernel is not in use on this CPU (or this GOARCH); %s", l.name, levelsInUse())
			}
			defer setLevel(l.avx512, l.avx2)()
			f(t)
		})
	}
}

// TestKernelsBitIdenticalToScalarLoops holds the kernels' contract on
// every path: the same bits as the scalar reference at every m in 0…9
// and packRows-1…packRows+4 (the batches on either side of the one
// from which a layer packs its weights), k in 0…17 and n in 0…65 under
// every value mix (two full tiles and one more in m and in n at every
// level, the largest tile four rows high being 4 x 32: every k mod 4,
// n mod 4, mod 8, mod 16 and mod 32, m mod 3 and mod 4 tail, and the
// empty products; and MatMulABTPacked beside MatMulABT, with every
// mod 4 and mod 8 tail of the transpose's blocks), at random shapes up to 19
// and three long thin ones, and at the shapes the workloads run.
func TestKernelsBitIdenticalToScalarLoops(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := rng.New(14)
		ms := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		for m := packRows - 1; m <= packRows+4; m++ {
			ms = append(ms, m)
		}
		for _, m := range ms {
			for k := 0; k <= 17; k++ {
				for n := 0; n <= 65; n++ {
					for mix := 0; mix < numMixes; mix++ {
						requireKernelsMatch(t, r, m, k, n, mix, r.Intn(1<<12))
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
			requireKernelsMatch(t, r, s[0], s[1], s[2], trial%numMixes, r.Intn(1<<12))
		}
	})
}

// FuzzKernels is the same assertion with the shape, the operands'
// offsets, the value mix and the values' seed taken from the fuzz input.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint8(dense), uint16(0), uint64(1))
	f.Fuzz(func(t *testing.T, m, k, n, mix uint8, offs uint16, seed uint64) {
		eachKernelPath(t, func(t *testing.T) {
			requireKernelsMatch(t, rng.New(seed), int(m%48), int(k%80), int(n%48), int(mix%numMixes), int(offs))
		})
	})
}

// TestPackPaysOnlyOnTheTile holds PackPays to its rule at each level: a
// pack must serve packRows rows, 5 columns or more, in products that
// run on a tile kernel. At 256 bits a product of fewer than 4 rows
// under 32 wide goes to the Go form of the tile, slower than the dot
// kernels, so a rollout's batch-1 forwards do not pack there; nothing
// packs on the Go path.
func TestPackPaysOnlyOnTheTile(t *testing.T) {
	for _, c := range []struct {
		m, rows, n int
		want       [len(levels)]bool // avx512, avx2, go
	}{
		{64, 1, 64, [3]bool{true, true, false}},
		{64, 1, 16, [3]bool{true, false, false}},
		{64, 4, 16, [3]bool{true, true, false}},
		{64, 1, 32, [3]bool{true, true, false}},
		{packRows, packRows, 8, [3]bool{true, true, false}},
		{packRows - 1, packRows - 1, 64, [3]bool{false, false, false}},
		{64, 64, 6, [3]bool{true, false, false}},
		{64, 64, 4, [3]bool{false, false, false}},
	} {
		for i, l := range levels {
			restore := setLevel(l.avx512, l.avx2)
			got := PackPays(c.m, c.rows, c.n)
			restore()
			if got != c.want[i] {
				t.Errorf("/%s: PackPays(%d, %d, %d) = %v, want %v", l.name, c.m, c.rows, c.n, got, c.want[i])
			}
		}
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

func eachTanhPath(t *testing.T, f func(t *testing.T)) {
	eachPath(t, useAVX512 && tanh512OK, useAVX2 && tanhOK, f)
}

// TestTanhBitIdenticalToMath holds TanhInto's contract on every path:
// math.Tanh's bits over a million values of every mix, over the
// specials in every lane, at every length around the kernel/tail split
// with unaligned operands between canaries, and in place.
func TestTanhBitIdenticalToMath(t *testing.T) {
	eachTanhPath(t, func(t *testing.T) {
		r := rng.New(21)
		src, dst := make([]float64, 1<<20), make([]float64, 1<<20)
		for mix := 0; mix < numTanhMixes; mix++ {
			fillTanhMix(r, src, mix)
			TanhInto(dst, src)
			requireTanhBits(t, dst, src)
		}
		for lane := 0; lane < 8; lane++ { // every special in every lane, and in the tails
			in := tanhSpecials[lane:]
			TanhInto(dst, in)
			requireTanhBits(t, dst, in)
		}
		for _, span := range [][2]int{{0, 17}, {61, 67}} {
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
	eachTanhPath(t, func(t *testing.T) {
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
		eachTanhPath(t, func(t *testing.T) {
			requireTanhMatches(t, rng.New(seed), int(n%600), int(mix%numTanhMixes), int(offs))
		})
	})
}

// refScale and refAdam are the scalar loops Scale and AdamStep are
// held to, written out here as the products' references are, so that
// the Go path is checked as well as the assembly.
func refScale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func refAdam(p, g, m, v []float64, lr, beta1, beta2, eps, c1, c2 float64) {
	for i, gi := range g {
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mHat := m[i] / c1
		vHat := v[i] / c2
		p[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// requireSameVec is requireSameBits for a vector.
func requireSameVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	requireSameBits(t, what, 1, 1, len(want), MatFrom(1, len(got), got), MatFrom(1, len(want), want))
}

// requireScaleMatches scales n values of the given mix, a sub-slice at
// an odd offset of a canary-filled array, and holds them to refScale's
// bits and their surroundings to the canaries.
func requireScaleMatches(t *testing.T, r *rng.RNG, n, mix, offs int, alpha float64) {
	t.Helper()
	off := 1 + 2*(offs&3)
	x, back := guardedMat(1, n, off)
	fillMix(r, x.Data, mix)
	want := append([]float64(nil), x.Data...)
	Scale(alpha, x.Data)
	refScale(alpha, want)
	requireSameVec(t, "Scale", x.Data, want)
	requireCanaries(t, "Scale", 1, 1, n, back, off, n)
}

// requireAdamMatches takes one Adam step of the given rate at step
// count step (β₁ 0.9, β₂ 0.999, ε 1e-8, as optim.Adam) on n coordinates
// of the given mix — every operand at an odd offset of a canary-filled
// array, the moments as a run leaves them, or of the mix themselves —
// and holds p, m and v to refAdam's bits and their surroundings to the
// canaries.
func requireAdamMatches(t *testing.T, r *rng.RNG, n, mix, offs int, lr float64, step int) {
	t.Helper()
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	off := func(i int) int { return 1 + 2*(offs>>(2*i)&3) }
	var ops [4]*Mat
	var backs [4][]float64
	for i := range ops {
		ops[i], backs[i] = guardedMat(1, n, off(i))
		fillMix(r, ops[i].Data, mix)
	}
	p, g, m, v := ops[0].Data, ops[1].Data, ops[2].Data, ops[3].Data
	if mix != special {
		for i := range v {
			v[i] *= v[i] // a second moment is a mean of squares
		}
	}
	wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
	AdamStep(p, g, m, v, lr, beta1, beta2, eps, c1, c2)
	refAdam(wp, g, wm, wv, lr, beta1, beta2, eps, c1, c2)
	requireSameVec(t, "AdamStep p", p, wp)
	requireSameVec(t, "AdamStep m", m, wm)
	requireSameVec(t, "AdamStep v", v, wv)
	for i, back := range backs {
		requireCanaries(t, "AdamStep", 1, 1, n, back, off(i), n)
	}
}

// TestScaleAndAdamBitIdenticalToScalarLoops holds the two elementwise
// kernels to their scalar loops on every path: every length 0…19 (every
// tail), lengths around a parameter slab's, every value mix, rates of
// every size and sign, and step counts from the first to where the bias
// corrections round to 1.
func TestScaleAndAdamBitIdenticalToScalarLoops(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := rng.New(30)
		lrs := []float64{3e-4, 1, -2.5, 0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.NaN()}
		steps := []int{1, 2, 3, 10, 1000, 100000}
		for n := 0; n < 20; n++ {
			for mix := 0; mix < numMixes; mix++ {
				for i, lr := range lrs {
					requireScaleMatches(t, r, n, mix, r.Intn(1<<10), lr)
					requireAdamMatches(t, r, n, mix, r.Intn(1<<10), lr, steps[i%len(steps)])
				}
			}
		}
		for _, n := range []int{1021, 1024, 1027} {
			for mix := 0; mix < numMixes; mix++ {
				requireScaleMatches(t, r, n, mix, r.Intn(1<<10), r.NormFloat64())
				requireAdamMatches(t, r, n, mix, r.Intn(1<<10), 3e-4, 1+r.Intn(50))
			}
		}
	})
}

// requireAxpyMatches adds alpha times n values of the given mix to n
// others, each a sub-slice at an odd offset of a canary-filled array,
// and holds y to the scalar loop's bits and its surroundings to the
// canaries.
func requireAxpyMatches(t *testing.T, r *rng.RNG, n, mix, offs int, alpha float64) {
	t.Helper()
	offX, offY := 1+2*(offs&3), 1+2*(offs>>2&3)
	x, _ := guardedMat(1, n, offX)
	y, back := guardedMat(1, n, offY)
	fillMix(r, x.Data, mix)
	fillMix(r, y.Data, mix)
	want := append([]float64(nil), y.Data...)
	for i, xv := range x.Data {
		want[i] += alpha * xv
	}
	Axpy(alpha, x.Data, y.Data)
	requireSameVec(t, "Axpy", y.Data, want)
	requireCanaries(t, "Axpy", 1, 1, n, back, offY, n)
}

// TestAxpyBitIdenticalToScalarLoop holds Axpy to y[i] += alpha*x[i] on
// every path: every length 0…40 (every tail of the 16-, 8- and 4-wide
// steps), lengths around a parameter slab's, every value mix, and
// factors of every size and sign.
func TestAxpyBitIdenticalToScalarLoop(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		r := rng.New(31)
		alphas := []float64{3e-4, 1, -2.5, 0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.NaN()}
		for n := 0; n <= 40; n++ {
			for mix := 0; mix < numMixes; mix++ {
				for _, alpha := range alphas {
					requireAxpyMatches(t, r, n, mix, r.Intn(1<<10), alpha)
				}
			}
		}
		for _, n := range []int{1021, 1024, 1027} {
			for mix := 0; mix < numMixes; mix++ {
				requireAxpyMatches(t, r, n, mix, r.Intn(1<<10), r.NormFloat64())
			}
		}
	})
}

func TestAdamStepLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdamStep with a short moment did not panic")
		}
	}()
	AdamStep(make([]float64, 8), make([]float64, 8), make([]float64, 8), make([]float64, 7), 1, 0.9, 0.999, 1e-8, 0.1, 0.001)
}

// FuzzScale and FuzzAdamStep are the same assertions with the length,
// the operands' offsets, the value mix, the values' seed, the factor or
// rate, and the step count taken from the fuzz input.
func FuzzScale(f *testing.F) {
	f.Add(uint16(11), uint8(0), uint8(special), 0.5, uint64(1))
	f.Fuzz(func(t *testing.T, n uint16, offs, mix uint8, alpha float64, seed uint64) {
		eachKernelPath(t, func(t *testing.T) {
			requireScaleMatches(t, rng.New(seed), int(n%600), int(mix%numMixes), int(offs), alpha)
		})
	})
}

func FuzzAdamStep(f *testing.F) {
	f.Add(uint16(11), uint8(0), uint8(special), 3e-4, uint32(1), uint64(1))
	f.Fuzz(func(t *testing.T, n uint16, offs, mix uint8, lr float64, step uint32, seed uint64) {
		eachKernelPath(t, func(t *testing.T) {
			requireAdamMatches(t, rng.New(seed), int(n%600), int(mix%numMixes), int(offs), lr, 1+int(step%200000))
		})
	})
}
