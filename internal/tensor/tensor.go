// Package tensor implements the dense linear-algebra primitives underlying
// Stellaris's neural networks: flat float64 vectors, row-major matrices,
// and the im2col transformation used by the convolutional layers.
//
// The package is deliberately small and allocation-aware rather than
// general: every hot loop in DRL gradient computation reduces to matmul,
// matvec, axpy and elementwise maps over contiguous slices.
//
// # Kernels
//
// The three matrix products run on one rule: what may be computed in
// parallel is the set of independent outputs, never the sum over k, and
// a product and the add that consumes it stay two operations with two
// roundings. Every output element is accumulated from zero over
// k = 0, 1, 2, … exactly as a scalar triple loop would, zero
// coefficients are skipped where the scalar loops skipped them, and the
// results are bit-identical to those loops. That is a contract, not a
// tolerance: the committed results/*.txt, the lockstep weight hashes and
// the DES output hashes were all computed through those loops, and a
// kernel that reassociates a sum or fuses a multiply-add moves every one
// of them. The scalar loops live on in kernel_test.go, where a property
// test and a fuzz target hold both paths below to them by
// math.Float64bits, over every tile remainder, at unaligned offsets,
// with canaries around dst and with ±0, denormals, ±Inf and NaN among
// the operands.
//
// The portable path is plain Go, tiled over independent outputs because
// gc does not vectorize and a scalar loop is bound by its dependent adds
// and by the loads and stores around them:
//
//   - MatMulABT computes a 3 x 2 block of dot products per pass over k
//     (six add chains in flight, five loads per six multiply-adds where
//     a lone Dot has one chain and two loads per multiply-add), 1 x 4
//     for leftover rows and for batch-1 inputs.
//   - MatMul and MatMulATB add four scaled rows of b to a dst row per
//     pass, so the row is loaded and stored once per four k-steps;
//     MatMulATB walks k in chunks so that b streams through once.
//
// Operands are re-sliced to one common length before the inner loops,
// which lets the compiler drop their bounds checks.
//
// On amd64 with AVX2 (detected once at init; there is no switch) the
// innermost loops are the assembly of kernel_amd64.s, which puts four
// independent outputs in the four lanes of a vector: VMULPD and VADDPD
// are the scalar multiply and the scalar add done four times over, lane
// by lane, so each output sees the operations of the Go loop in the
// order of the Go loop. Axpy and the four-row pass under MatMul and
// MatMulATB take 8, then 4, then 1 elements of the dst row per step;
// MatMulABT computes 4 x 4 tiles (1 x 8 for one row) by transposing a
// 4 x 4 block of b in registers, so that the lanes of an accumulator are
// four dot products advancing through k together. Rows and columns left
// over by the tiles go to the Go kernels. The assembly is handed only
// pointers into slices Go has already sliced to their full extent, so a
// wrong shape panics in Go.
//
// TanhInto, the activation between the products, is the same idea
// applied to a function call: a batch of pre-activations is that many
// independent math.Tanh calls, and tanhAVX2 makes four at a time. Each
// lane goes through all three arms of the switch in math/tanh.go — the
// rational approximation, 1 - 2/(Exp(2z)+1) with math.Exp's amd64
// assembly inlined, and ±1 — written with the instructions the scalar
// code executes for that arm, in its order, on constants the assembler
// rounds from the same literals; compares then keep, per lane, the arm
// the switch would have taken. The reference is math.Tanh itself:
// every host without the kernel, and the last len mod 4 elements on
// every host, call it, and no Go port of it exists to drift.
//
// The rule, for all of it, is that each lane executes the reference's
// own instruction sequence. For the three products the reference is a
// Go loop, gc never fuses x*y + z on amd64 at any GOAMD64 level, and so
// their kernels are a multiply then an add and never an FMA, on either
// path. For tanh the reference is whatever math.Tanh executes on this
// host, and math.Exp is assembly that takes an FMA arm where the CPU has
// FMA (and Go's GODEBUG=cpu.fma=off does not forbid it) and a
// multiply-add arm elsewhere; between 0.625 and 8 the two give tanh
// different bits for about one input in 280. tanhAVX2 is a
// transcription of the FMA arm only, and that the host's math.Tanh is
// the function it transcribes is checked, not assumed: at init the
// kernel runs on a fixed table — every branch point of tanh and its
// neighbours, and sixteen inputs found to separate the two arms — and is
// used only if every result has math.Tanh's bits. A host on the other
// arm, or a toolchain that rewrites math.Exp or math.Tanh, thereby keeps
// the scalar loop and its own bits;
// TestTanhKernelStandsDownWithoutFMAExp holds the check to both answers.
// Outputs are therefore reproducible per host class (amd64 with FMA,
// amd64 without, each other port), as math.Tanh's always were.
//
// On ports whose compiler does fuse (arm64, ppc64le, s390x) only the Go
// path exists, and a kernel and its reference stay identical only if
// both fuse the same products; should they ever differ there, write the
// products as float64(x*y), which forbids the fusion.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFrom wraps data as a Rows x Cols matrix without copying.
func MatFrom(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %dx%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing m's storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements of m to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul computes dst = a * b. dst must not alias a or b.
// Shapes: a is m x k, b is k x n, dst is m x n.
func MatMul(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		addScaledRows(dst.Row(i), a.Row(i), 1, b.Data, b.Rows)
	}
}

// atbChunk is how many rows of a and b MatMulATB consumes per sweep over
// dst: b's chunk stays cached while every dst row takes its share of it,
// and dst is re-read once per chunk rather than once per row.
const atbChunk = 32

// MatMulATB computes dst = aᵀ * b (a is k x m, b is k x n, dst is m x n).
// Used by backward passes to accumulate weight gradients.
func MatMulATB(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)ᵀ*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	m, n := a.Cols, b.Cols
	for k0 := 0; k0 < a.Rows; k0 += atbChunk {
		k1 := min(k0+atbChunk, a.Rows)
		ac, bc := a.Data[k0*m:k1*m], b.Data[k0*n:k1*n]
		for i := 0; i < m; i++ {
			addScaledRows(dst.Row(i), ac[i:], m, bc, k1-k0)
		}
	}
}

// addScaledRows computes d += Σ_k a[k*stride] * (row k of b) over b's
// rows, each len(d) wide, in ascending k. Zero coefficients are skipped,
// as the scalar loops this replaces did (which also keeps 0·Inf out of
// d); the others are applied four rows per pass over d.
func addScaledRows(d, a []float64, stride int, b []float64, rows int) {
	n := len(d)
	if n == 0 {
		return
	}
	b = b[:rows*n] // every off+n below is inside it: the assembly gets no other proof
	var off [4]int
	var coef [4]float64
	c := 0
	for k := 0; k < rows; k++ {
		v := a[k*stride]
		if v == 0 {
			continue
		}
		off[c], coef[c] = k*n, v
		c++
		if c == 4 {
			if useAVX2 {
				axpy4AVX2(&d[0], n, &b[0], &off, &coef)
			} else {
				axpy4(d, b[off[0]:off[0]+n], b[off[1]:off[1]+n], b[off[2]:off[2]+n], b[off[3]:off[3]+n],
					coef[0], coef[1], coef[2], coef[3])
			}
			c = 0
		}
	}
	for q := 0; q < c; q++ {
		Axpy(coef[q], b[off[q]:off[q]+n], d)
	}
}

// axpy4 computes d += a0*b0 + a1*b1 + a2*b2 + a3*b3 elementwise, adding
// the four products to each d[j] one after another in that order: four
// Axpy calls with one load and one store of d where they make four.
// axpy4AVX2 does the same to eight, four or one d[j] per step.
func axpy4(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j, v := range d {
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		d[j] = v
	}
}

// MatMulABT computes dst = a * bᵀ (a is m x k, b is n x k, dst is m x n).
// Used by forward passes and to propagate deltas through dense layers.
func MatMulABT(dst, a, b *Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)*(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	i := 0
	if m, k, n := a.Rows, a.Cols, b.Rows; useAVX2 && k > 0 && n >= 4 {
		// 4 x 4 tiles in assembly; the n mod 4 columns left of each four
		// rows go to the Go kernels, as do the m mod 4 rows below.
		n4 := n &^ 3
		bTile, bRest := b.Data[:n4*k], b.Data[n4*k:]
		for ; i+4 <= m; i += 4 {
			d, ar := dst.Data[i*n:(i+4)*n], a.Data[i*k:(i+4)*k]
			dot4RowsAVX2(&d[0], n, &ar[0], &bTile[0], k, n4)
			if n4 < n {
				dot3Rows(d[n4:n], d[n+n4:2*n], d[2*n+n4:3*n], ar[:k], ar[k:2*k], ar[2*k:3*k], bRest)
				dot1Row(d[3*n+n4:], ar[3*k:], bRest)
			}
		}
	}
	for ; i+3 <= a.Rows; i += 3 {
		dot3Rows(dst.Row(i), dst.Row(i+1), dst.Row(i+2), a.Row(i), a.Row(i+1), a.Row(i+2), b.Data)
	}
	for ; i < a.Rows; i++ {
		dot1Row(dst.Row(i), a.Row(i), b.Data)
	}
}

// dot3Rows fills three dst rows with the inner products of three rows of
// a against every len(a0)-wide row of b: 3 x 2 accumulators per pass
// over k (six independent add chains from five loads), 3 x 1 for an odd
// last row of b.
func dot3Rows(d0, d1, d2, a0, a1, a2, b []float64) {
	k := len(a0)
	a1, a2 = a1[:k], a2[:k]
	j := 0
	for ; j+2 <= len(d0); j += 2 {
		b0, b1 := b[j*k : (j+1)*k][:k], b[(j+1)*k : (j+2)*k][:k]
		var s00, s01, s10, s11, s20, s21 float64
		for p, x0 := range a0 {
			x1, x2 := a1[p], a2[p]
			y0, y1 := b0[p], b1[p]
			s00 += x0 * y0
			s01 += x0 * y1
			s10 += x1 * y0
			s11 += x1 * y1
			s20 += x2 * y0
			s21 += x2 * y1
		}
		d0[j], d0[j+1] = s00, s01
		d1[j], d1[j+1] = s10, s11
		d2[j], d2[j+1] = s20, s21
	}
	if j < len(d0) {
		b0 := b[j*k : (j+1)*k][:k]
		var s0, s1, s2 float64
		for p, x0 := range a0 {
			y := b0[p]
			s0 += x0 * y
			s1 += a1[p] * y
			s2 += a2[p] * y
		}
		d0[j], d1[j], d2[j] = s0, s1, s2
	}
}

// dot1Row is the one-row form (a batch's last rows, and the whole of an
// actor's batch-1 forward pass): 1 x 8 outputs per pass in assembly where
// there is AVX2, then 1 x 4 accumulators, then plain Dot.
func dot1Row(d, a0, b []float64) {
	k := len(a0)
	j := 0
	if n8 := len(d) &^ 7; useAVX2 && k > 0 && n8 > 0 {
		bb := b[:n8*k]
		dot1RowAVX2(&d[0], &a0[0], &bb[0], k, n8)
		j = n8
	}
	for ; j+4 <= len(d); j += 4 {
		b0, b1 := b[j*k : (j+1)*k][:k], b[(j+1)*k : (j+2)*k][:k]
		b2, b3 := b[(j+2)*k : (j+3)*k][:k], b[(j+3)*k : (j+4)*k][:k]
		var s0, s1, s2, s3 float64
		for p, x := range a0 {
			s0 += x * b0[p]
			s1 += x * b1[p]
			s2 += x * b2[p]
			s3 += x * b3[p]
		}
		d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
	}
	for ; j < len(d); j++ {
		d[j] = Dot(a0, b[j*k:(j+1)*k])
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += alpha * x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if useAVX2 && len(x) > 0 {
		axpyAVX2(&x[0], &y[0], len(x), alpha)
		return
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// TanhInto sets dst[i] = math.Tanh(src[i]) for every i < len(src), to
// the bit. dst may be src; a dst shorter than src panics.
func TanhInto(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: TanhInto dst length %d < src length %d", len(dst), len(src)))
	}
	n4 := 0
	if useAVX2 && tanhOK {
		if n4 = len(src) &^ 3; n4 > 0 {
			tanhAVX2(&dst[0], &src[0], n4)
		}
	}
	dst = dst[:len(src)]
	for i := n4; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// AddBiasRows adds bias to every row of m.
func AddBiasRows(m *Mat, bias []float64) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, bv := range bias {
			row[j] += bv
		}
	}
}

// SumRows accumulates the column sums of m into dst (dst += colsum).
func SumRows(dst []float64, m *Mat) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRows dst length %d != cols %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// ClipNorm rescales x in place so its Euclidean norm is at most maxNorm,
// returning the original norm. A non-positive maxNorm disables clipping.
func ClipNorm(x []float64, maxNorm float64) float64 {
	n := Norm2(x)
	if maxNorm > 0 && n > maxNorm {
		Scale(maxNorm/n, x)
	}
	return n
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Standardize shifts and scales x in place to zero mean, unit std.
// A tiny epsilon guards against constant inputs.
func Standardize(x []float64) {
	m, sd := Mean(x), Std(x)
	if sd < 1e-8 {
		sd = 1e-8
	}
	for i := range x {
		x[i] = (x[i] - m) / sd
	}
}
