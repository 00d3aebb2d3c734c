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
// MatMul and MatMulATB are one routine, sumScaledRows: row i of dst is
// Σ_p a(i, p) · (row p of b), and the two differ only in the strides
// at which a(i, p) is read. MatMulABTPacked is the same routine on bᵀ,
// with a comparand that skips no coefficient: Dot, its reference, adds
// 0·b where the others skip it, so a(i, p) = 0 against an infinite
// b(j, p) gives NaN there and nothing in MatMul. MatMulABT takes dot
// products of the rows of a and b as they lie, with the same bits. A
// caller whose b serves rows enough to pay for a pack (PackPays)
// transposes it (Transpose) and runs MatMulABTPacked: nn's
// layers do, once per batched forward and once per rollout.
// The portable path is plain Go, tiled over independent outputs or over
// k because gc does not vectorize and a scalar loop is bound by its
// dependent adds and by the loads and stores around them:
//
//   - MatMulABT computes a 3 x 2 block of dot products per pass over k
//     (six add chains in flight, five loads per six multiply-adds where
//     a lone Dot has one chain and two loads per multiply-add), 1 x 4
//     for leftover rows and for batch-1 inputs.
//   - sumScaledRows adds four scaled rows of b to a dst row per pass
//     where none of the four coefficients equals the comparand, so the
//     row is loaded and stored once per four k-steps, and the others of
//     the four one at a time otherwise: a coefficient is skipped with
//     an if, as the scalar loops skipped it.
//
// Operands are re-sliced to one common length before the inner loops,
// which lets the compiler drop their bounds checks.
//
// On amd64 with AVX2 (detected once at init; there is no switch) the
// innermost loops are the assembly of kernel_amd64.s, which puts
// independent outputs in the lanes of a vector, one output per lane:
// VMULPD and VADDPD are the scalar multiply and the scalar add done once
// per lane, so each output sees the operations of the Go loop in the
// order of the Go loop. There are two widths. The AVX2 kernels hold four
// outputs in a 256-bit register; where the CPU also has AVX-512F (and
// the OS saves its registers) the 512-bit kernels hold eight, with the
// same instructions per lane.
//
// sumScaledRows is a register tile, an outer product per k-step: a
// segment of row p of b is loaded once, one coefficient per row of the
// tile is broadcast, and each product is added into its row's
// accumulators only in the lanes where VCMPPD with predicate 4 (NEQ_UQ:
// not equal, or unordered, so that a NaN coefficient is added as the Go
// loop adds it, and every coefficient is where the comparand is NaN)
// says the coefficient is not the comparand. At 512 bits that is a
// merge mask on the add; at 256 bits the sum is blended (VBLENDVPD)
// against the accumulator it came from. Where the comparand is NaN the
// tiles take loops with neither compare nor mask nor blend (the one-row
// tile at 256 bits keeps its branch, which never skips). The
// accumulators start at +0, stay in registers for all of k and are
// stored once, so dst is written but never zeroed or read. A bias
// (MatMulABTPacked's, a layer's) is added to them in the register just
// before that store, on every store path alike: VADDPD with the bias as
// its first operand, the one add AddBiasRows makes after the store, in
// the operand order gc gives that loop (an add of two NaNs keeps its
// first operand's, the bias's).
// sumRowsAVX512 takes four rows of dst at a time in 4 x 32 tiles, then
// 4 x 16 for the columns left, whose loads and stores are masked at n;
// sumRowsAVX2 takes 4 x 8 tiles, and where n is no multiple of 8 the
// last tile of a row ends at n and overlaps the one before it, storing
// its outputs again with the same bits. Rows a multiple of four leaves
// over are the last four rows again, ending at m, except at 256 bits in
// rows 32 wide or more: there they go one at a time, as do products of
// fewer than four rows, in tiles one row high and 32 wide (eight
// accumulators), the last of a row ending at n. A one-row tile has a
// single coefficient per k-step, so it skips one equal to the
// comparand with a branch, as the Go loop does, rather than by lane. A
// product narrower than 8, or of fewer than four rows narrower than 32,
// takes the Go path where there is no AVX-512; at 512 bits fewer than
// four rows go one at a time in masked tiles 16 wide.
//
// Transpose moves 8 x 8 blocks at 512 bits (two TRANSPOSE8 of eight
// rows by four columns) and 4 x 4 at 256 (TRANSPOSE4), walking along
// the rows of dst so that its stores run in order. MatMulABT computes
// 4 x 8 tiles at 512 bits and 4 x 4 tiles at 256 (1 x 8 for one row,
// at 256 bits only) by transposing a block of b in registers, so that
// the lanes of an accumulator are dot products advancing through k
// together; Axpy takes 16 (512-bit), then 8, 4 and 1 elements per step.
// These 512-bit kernels take the part of a row that fills their steps
// and leave the rest to the AVX2 kernels, and rows and columns left
// over by the tiles go to the Go kernels. Each level is the whole path
// on a CPU that lacks the one above it. The
// assembly is handed only pointers into slices Go has already sliced to
// their full extent, so a wrong shape panics in Go.
//
// TanhInto, the activation between the products, is the same idea
// applied to a function call: a batch of pre-activations is that many
// independent math.Tanh calls, and tanhAVX512 makes eight at a time,
// tanhAVX2 four (the selects are mask merges at 512 bits). Each
// lane goes through all three arms of the switch in math/tanh.go — the
// rational approximation, 1 - 2/(Exp(2z)+1) with math.Exp's amd64
// assembly inlined, and ±1 — written with the instructions the scalar
// code executes for that arm, in its order, on constants the assembler
// rounds from the same literals; compares then keep, per lane, the arm
// the switch would have taken. The reference is math.Tanh itself:
// every host without a kernel, and the last len mod 4 elements on
// every host, call it, and no Go port of it exists to drift.
//
// Scale and AdamStep are elementwise, so their lanes are simply four
// coordinates: scaleAVX2 is Scale's multiply, and adamAVX2 is the Adam
// step's multiplies, adds, three divides and square root, each its own
// rounding (VDIVPD and VSQRTPD round as DIVSD and SQRTSD do), in the Go
// loop's order. That loop is the portable path, and the last len mod 4
// coordinates take it on every host. ReLUMask, ReLU's backward and
// with g = x its forward, is the same, eight lanes at 512 bits and four
// at 256: it compares x against +0 with GT_OQ, false for a NaN as the
// Go loop's x > 0 is, and moves g under the compare (a zeroing masked
// load at 512 bits, an AND at 256), so that each lane holds g's bits or
// +0. The last len mod 4 elements take the Go loop.
//
// The rule, for all of it, is that each lane executes the reference's
// own instruction sequence. For the three products the reference is a
// Go loop, gc never fuses x*y + z on amd64 at any GOAMD64 level, and so
// their kernels are a multiply then an add and never an FMA, on any
// path. For tanh the reference is whatever math.Tanh executes on this
// host, and math.Exp is assembly that takes an FMA arm where the CPU has
// FMA (and Go's GODEBUG=cpu.fma=off does not forbid it) and a
// multiply-add arm elsewhere; between 0.625 and 8 the two give tanh
// different bits for about one input in 280. Both tanh kernels are a
// transcription of the FMA arm only, and that the host's math.Tanh is
// the function they transcribe is checked, not assumed: at init each
// kernel runs on a fixed table — every branch point of tanh and its
// neighbours, and sixteen inputs found to separate the two arms — and
// is used only if every result has math.Tanh's bits. A host on the
// other arm, or a toolchain that rewrites math.Exp or math.Tanh,
// thereby keeps the scalar loop and its own bits;
// TestTanhKernelStandsDownWithoutFMAExp holds the check to both answers.
// Outputs are therefore reproducible per host class (amd64 with FMA,
// amd64 without, each other port), as math.Tanh's always were; the
// 512-bit kernels move no bit, so they are inside the first class, not
// a class of their own.
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

// NewMat allocates a zeroed Rows x Cols matrix, its storage a NewVec.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// NewVec allocates n zeroed elements whose backing array runs on for
// vecTail more, the first and last of those written, and whose capacity
// ends at n. The 512-bit tile reads and writes the last columns of a
// row under a mask, up to 120 bytes past its end (of b, of dst, of the
// bias), and a masked access whose idle lanes reach a page never
// touched pays a fault-suppression assist every time: a 1x64·2 product
// ran 220-500 ns so placed, 40 ns otherwise (EXPERIMENTS.md). Every
// matrix NewMat makes, and nn's weight slab, is such a vector.
func NewVec(n int) []float64 {
	buf := make([]float64, n+vecTail)
	buf[n], buf[len(buf)-1] = 0, 0 // each page the tail reaches is present
	return buf[:n:n]
}

const vecTail = 16

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
	sumScaledRows(dst, a.Data, a.Cols, 1, b, 0, nil)
}

// MatMulATB computes dst = aᵀ * b (a is k x m, b is k x n, dst is m x n).
// Used by backward passes to accumulate weight gradients.
func MatMulATB(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)ᵀ*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	sumScaledRows(dst, a.Data, 1, a.Cols, b, 0, nil)
}

// sumScaledRows sets row i of dst to Σ_p a[i*rs+p*cs] * (row p of b)
// over b's rows, plus bias where bias is not nil: MatMul is rs = k,
// cs = 1 and MatMulATB rs = 1, cs = m, the only difference between the
// two, and MatMulABTPacked is MatMul on bᵀ.
// Each output is summed from +0 in ascending p, and a coefficient equal
// to z adds nothing: z = 0 skips zero coefficients, as the scalar loops
// of MatMul and MatMulATB skipped them (which also keeps 0·Inf out of
// dst), and z = NaN (skipNone) skips none, as Dot skips none. The bias
// is then added to each finished sum as AddBiasRows adds it, bias first
// (which NaN an add of two NaNs gives is its first operand's). The
// assembly keeps the sums in register tiles for all of p and adds the
// bias in the register before the one store (see the package comment);
// the Go path is sumScaledRow, one row at a time, then AddBiasRows.
func sumScaledRows(dst *Mat, a []float64, rs, cs int, b *Mat, z float64, bias []float64) {
	m, n, k := dst.Rows, dst.Cols, b.Rows
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		dst.Zero()
		addBias(dst, bias)
		return
	}
	// The last element each operand is read at: the assembly gets no
	// other proof that the shapes fit.
	d, a, bd := dst.Data[:m*n], a[:(m-1)*rs+(k-1)*cs+1], b.Data[:k*n]
	var bp *float64
	if bias != nil {
		bp = &bias[:n][0]
	}
	switch {
	case useAVX512:
		sumRowsAVX512(&d[0], m, n, &a[0], rs, cs, &bd[0], k, z, bp)
		return
	case tileTakes(m, n):
		sumRowsAVX2(&d[0], m, n, &a[0], rs, cs, &bd[0], k, z, bp)
		return
	}
	for i := 0; i < m; i++ {
		sumScaledRow(d[i*n:(i+1)*n], a[i*rs:], cs, bd, z)
	}
	addBias(dst, bias)
}

// addBias is AddBiasRows where bias is not nil.
func addBias(m *Mat, bias []float64) {
	if bias != nil {
		AddBiasRows(m, bias)
	}
}

// skipNone is the comparand under which sumScaledRows adds every term:
// no coefficient equals a NaN.
var skipNone = math.NaN()

// sumScaledRow is the Go path of sumScaledRows for one row: d = Σ_p
// a[p*cs] * b[p*len(d):(p+1)*len(d)] over the rows of b, four k-steps
// per pass over d where none of their coefficients equals z, else the
// other ones of the four one pass each.
func sumScaledRow(d, a []float64, cs int, b []float64, z float64) {
	n := len(d)
	k := len(b) / n
	clear(d)
	for p := 0; p < k; p += 4 {
		if p+4 <= k {
			c0, c1, c2, c3 := a[p*cs], a[(p+1)*cs], a[(p+2)*cs], a[(p+3)*cs]
			if c0 != z && c1 != z && c2 != z && c3 != z {
				b0, b1, b2, b3 := b[p*n:][:n], b[(p+1)*n:][:n], b[(p+2)*n:][:n], b[(p+3)*n:][:n]
				for j, v := range d {
					v += c0 * b0[j]
					v += c1 * b1[j]
					v += c2 * b2[j]
					v += c3 * b3[j]
					d[j] = v
				}
				continue
			}
		}
		for q := p; q < min(p+4, k); q++ {
			if c := a[q*cs]; c != z {
				bq := b[q*n:][:n]
				for j := range d {
					d[j] += c * bq[j]
				}
			}
		}
	}
}

// packRows is the fewest rows a pack of b must serve (EXPERIMENTS.md,
// "MatMulABT on the outer-product tile"): from 24 rows on, a product on
// bᵀ transposed for the call, pack included, ran no slower (within 1 %)
// than the dot-product kernels on b at every weight shape the workloads
// forward through, at both vector widths.
const packRows = 24

// PackPays says whether it pays to transpose an n x k b once and run m
// rows of a through MatMulABTPacked on it, in products of rows rows
// each, rather than MatMulABT on b as it lies: m must be packRows or
// more, and each product must run on the tile kernels in 5 columns or
// more. A product the tile leaves to the Go path (see tileTakes; at 256
// bits, one 8 to 31 wide and of fewer than 4 rows) runs slower packed
// than on the dot kernels, and so does one 4 columns wide or narrower,
// where a 512-bit tile idles 12 of its 16 lanes or more (at 4 the dot
// kernels' own 4 x 4 tile is 1.5x faster). nn's layers pack by it, for
// one batched product (m = rows) or for the batch-1 forwards of a
// rollout (m its steps).
func PackPays(m, rows, n int) bool {
	return m >= packRows && n > 4 && tileTakes(rows, n)
}

// tileTakes says whether sumScaledRows runs an m x n product on a tile
// kernel rather than on the Go path: every product at 512 bits; at 256
// bits, one 8 columns wide or more, in 4 rows or more or 32 columns or
// more.
func tileTakes(m, n int) bool {
	return useAVX512 || useAVX2 && n >= 8 && (m >= 4 || n >= 32)
}

// MatMulABTPacked computes dst = a * bᵀ + bias from bt = bᵀ as
// Transpose leaves it (a is m x k, bt is k x n, dst is m x n, bias nil
// or of n), with MatMulABT's and then AddBiasRows' bits: it is MatMul
// with no coefficient skipped, each output summed from +0 over
// ascending k as Dot sums it, and the bias added to each sum before it
// is stored. A layer whose weights hold still over many products packs
// them once into a NewMat and runs each product here.
func MatMulABTPacked(dst, a, bt *Mat, bias []float64) {
	if a.Cols != bt.Rows || dst.Rows != a.Rows || dst.Cols != bt.Cols || bias != nil && len(bias) != bt.Cols {
		panic(fmt.Sprintf("tensor: MatMulABTPacked shape mismatch (%dx%d)*(%dx%d)+(%d)->(%dx%d)",
			a.Rows, a.Cols, bt.Rows, bt.Cols, len(bias), dst.Rows, dst.Cols))
	}
	sumScaledRows(dst, a.Data, a.Cols, 1, bt, skipNone, bias)
}

// Transpose sets dst to srcᵀ (src is r x c, dst is c x r); dst must not
// alias src. Where there is AVX2 the assembly moves 4 x 4 blocks (8 x 8
// at 512 bits, where c mod 8 < 4) through registers, so that each store
// writes a run of a row of dst rather than one element of it; the rows
// and columns the blocks leave go element by element.
func Transpose(dst, src *Mat) {
	r, c := src.Rows, src.Cols
	if dst.Rows != c || dst.Cols != r {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch (%dx%d)ᵀ->(%dx%d)", r, c, dst.Rows, dst.Cols))
	}
	d, s := dst.Data[:r*c], src.Data[:r*c]
	j, c4 := 0, c&^3 // rows of src the assembly takes, and its columns
	if useAVX2 && c4 > 0 {
		if c8 := c &^ 7; useAVX512 && c8 == c4 {
			if j = r &^ 7; j > 0 {
				transposeAVX512(&d[0], r, &s[0], c, j, c8)
			}
		}
		if r4 := r &^ 3; r4 > j {
			transposeAVX2(&d[j], r, &s[j*c], c, r4-j, c4)
			j = r4
		}
	}
	for i := 0; i < j; i++ {
		for p := c4; p < c; p++ {
			d[p*r+i] = s[i*c+p]
		}
	}
	for ; j < r; j++ {
		for p, v := range s[j*c : (j+1)*c] {
			d[p*r+j] = v
		}
	}
}

// MatMulABT computes dst = a * bᵀ (a is m x k, b is n x k, dst is m x n).
// Used by forward passes and to propagate deltas through dense layers.
// It takes dot products of the rows of a and b as they lie; a caller
// that runs rows enough on one b to pay for a pack (PackPays) packs it
// (Transpose) and runs MatMulABTPacked instead, with the same bits.
func MatMulABT(dst, a, b *Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)*(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	i := 0
	if m, k, n := a.Rows, a.Cols, b.Rows; useAVX2 && k > 0 && n >= 4 {
		// 4 x 8 tiles, then 4 x 4, in assembly; the n mod 4 columns left
		// of each four rows go to the Go kernels, as do the m mod 4 rows
		// below.
		n8, n4 := 0, n&^3
		if useAVX512 {
			n8 = n &^ 7
		}
		bTile, bRest := b.Data[:n4*k], b.Data[n4*k:]
		for ; i+4 <= m; i += 4 {
			d, ar := dst.Data[i*n:(i+4)*n], a.Data[i*k:(i+4)*k]
			if n8 > 0 {
				dot4RowsAVX512(&d[0], n, &ar[0], &bTile[0], k, n8)
			}
			if n8 < n4 {
				dot4RowsAVX2(&d[n8], n, &ar[0], &bTile[n8*k], k, n4-n8)
			}
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
		j := 0
		if useAVX512 {
			if j = len(x) &^ 15; j > 0 {
				axpyAVX512(&x[0], &y[0], j, alpha)
			}
		}
		if j < len(x) {
			axpyAVX2(&x[j], &y[j], len(x)-j, alpha)
		}
		return
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	n4 := 0
	if useAVX2 {
		if n4 = len(x) &^ 3; n4 > 0 {
			scaleAVX2(&x[0], n4, alpha)
		}
	}
	for i := n4; i < len(x); i++ {
		x[i] *= alpha
	}
}

// AdamStep applies one Adam update to every coordinate of p, given the
// gradient g and the moments m and v (all of p's length), the rate lr,
// the decays beta1 and beta2, eps, and the bias corrections c1 and c2
// of this step:
//
//	m[i] = beta1*m[i] + (1-beta1)*g[i]
//	v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
//	p[i] -= lr*(m[i]/c1) / (math.Sqrt(v[i]/c2) + eps)
//
// The Go loop below is the reference; on amd64 with AVX2 adamAVX2 runs
// it four coordinates at a time, each lane the same operations in the
// same order, so both paths give the same bits.
func AdamStep(p, g, m, v []float64, lr, beta1, beta2, eps, c1, c2 float64) {
	if len(g) != len(p) || len(m) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("tensor: AdamStep lengths %d, %d, %d, %d", len(p), len(g), len(m), len(v)))
	}
	n4 := 0
	if useAVX2 {
		if n4 = len(p) &^ 3; n4 > 0 {
			k := [8]float64{beta1, 1 - beta1, beta2, 1 - beta2, c1, c2, lr, eps}
			adamAVX2(&p[0], &g[0], &m[0], &v[0], n4, &k)
		}
	}
	for i := n4; i < len(p); i++ {
		m[i] = beta1*m[i] + (1-beta1)*g[i]
		v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
		mHat := m[i] / c1
		vHat := v[i] / c2
		p[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// TanhInto sets dst[i] = math.Tanh(src[i]) for every i < len(src), to
// the bit. dst may be src; a dst shorter than src panics.
func TanhInto(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: TanhInto dst length %d < src length %d", len(dst), len(src)))
	}
	n := 0
	if useAVX2 {
		if useAVX512 && tanh512OK {
			if n = len(src) &^ 7; n > 0 {
				tanhAVX512(&dst[0], &src[0], n)
			}
		}
		if n4 := len(src) &^ 3; tanhOK && n4 > n {
			tanhAVX2(&dst[n], &src[n], n4-n)
			n = n4
		}
	}
	dst = dst[:len(src)]
	for i := n; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// AddBiasRows adds bias to every row of m. MatMulABTPacked adds it in
// its registers instead, with this loop's bits.
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

// ReLUMask sets dst[i] = g[i] where x[i] > 0 and +0 elsewhere (a NaN
// or −0 x included), for every i < len(g): ReLU's backward, and with
// g = x its forward. dst may be g or x; a dst or x shorter than g
// panics. The Go loop below is the reference, and the last len mod 4
// elements take it on every host.
func ReLUMask(dst, g, x []float64) {
	x, dst = x[:len(g)], dst[:len(g)]
	i := 0
	if useAVX512 {
		if i = len(g) &^ 7; i > 0 {
			reluMaskAVX512(&dst[0], &g[0], &x[0], i)
		}
	}
	if n4 := len(g) &^ 3; useAVX2 && n4 > i {
		reluMaskAVX2(&dst[i], &g[i], &x[i], n4-i)
		i = n4
	}
	for ; i < len(g); i++ {
		if x[i] > 0 {
			dst[i] = g[i]
		} else {
			dst[i] = 0
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
