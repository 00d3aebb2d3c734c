package tensor

import "math"

// useAVX2 selects the assembly micro-kernels of kernel_amd64.s under
// MatMul, MatMulATB, MatMulABT, MatMulABTPacked with its bias epilogue
// and its pack (Transpose), Axpy, Scale, AdamStep, TanhInto and
// ReLUMask: each lane executes the reference's own instruction
// sequence. It is set once,
// here, from what the CPU and the OS report; the tests clear it to run
// the Go kernels on the same box. Without it no pack pays (PackPays):
// the Go form of the tile is slower than the Go dot products, so no
// layer packs its weights there.
var useAVX2 = hasAVX2()

// useAVX512 selects, under useAVX2, the kernels of kernel_amd64.s that
// put eight outputs in the eight lanes of a 512-bit register: they take
// the part of a row that fills whole steps of theirs and leave the rest
// to the AVX2 kernels, but for sumRowsAVX512, which masks its last
// columns and takes all of MatMul, MatMulATB and MatMulABTPacked. Set
// once, here, like useAVX2, and cleared by the tests to run the AVX2
// path on the same box.
var useAVX512 = useAVX2 && hasAVX512()

// tanhOK says that tanhAVX2 returns math.Tanh's bits in this process.
// The kernel is a transcription of what math.Tanh executes where
// math.Exp takes its FMA arm; on a host or under a GODEBUG where it
// takes the other arm, or under a toolchain that has rewritten either
// function, the probe finds the difference and TanhInto stays on
// math.Tanh. It is measured once, here, and never assumed.
var tanhOK = useAVX2 && hasFMA() && tanhProbe(tanhAVX2)

// tanh512OK is tanhOK for tanhAVX512, found by the same probe on its
// own: each kernel is admitted only by its own results.
var tanh512OK = useAVX512 && hasFMA() && tanhProbe(tanhAVX512)

// tanhProbeBits are inputs at and beside every branch point of
// math.Tanh, followed by sixteen on which the FMA and the non-FMA arm
// of math.Exp round tanh to different bits. Those were searched for
// (go1.24, about one input in 280 of [0.625, 8] separates the arms), so
// a random table of this size would most likely hold none. Four more
// zeros pad it to a multiple of eight, so that every entry goes through
// the vector loop of either kernel and none through a tail.
var tanhProbeBits = [32]uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x3fe3ffffffffffff, 0x3fe4000000000000, 0x3fe4000000000001, // 0.625
	0x404601e678fc457b, 0x404601e678fc457c, // 0.5*MAXLOG
	0xc059000000000000,                     // -100
	0x3fb999999999999a, 0xbfd3333333333333, // 0.1, -0.3
	0x7ff0000000000000, 0x7ff8000000c0ffee, // +Inf, a NaN
	0xbff4248fd1d035cb, 0x3fee90cb5d643650, 0xbff3ca94d15d807f, 0xbfec7ea75e238e81,
	0xbfea9f9704b0d10c, 0x3ffb343d3b48f770, 0x3ff89210942cde32, 0x3ff8da513b3f6a46,
	0x3fe95e6cf20f4ccf, 0x3fec6b5e8388ec5c, 0xbfec486eea1cf5a0, 0xbff4c3dffa823c5d,
	0x3fe99cca7fbd0a1c, 0x4000106ba9376b64, 0xbff3b9cfa6b96396, 0x3ff3c155f8b54ea6,
	0, 0, 0, 0,
}

// tanhProbe runs kernel over tanhProbeBits and says whether every
// result has math.Tanh's bits.
func tanhProbe(kernel func(dst, src *float64, n int)) bool {
	var in, out [len(tanhProbeBits)]float64
	for i, b := range tanhProbeBits {
		in[i] = math.Float64frombits(b)
	}
	kernel(&out[0], &in[0], len(in))
	for i, x := range in {
		if math.Float64bits(out[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// Implemented in kernel_amd64.s. Each takes pointers into slices whose
// full extent the Go caller has already sliced, so a shape that does
// not fit panics there and never reaches the assembly.

func hasAVX2() bool

func hasFMA() bool

func hasAVX512() bool

//go:noescape
func axpyAVX2(x, y *float64, n int, alpha float64)

//go:noescape
func axpyAVX512(x, y *float64, n16 int, alpha float64)

//go:noescape
func sumRowsAVX2(d *float64, m, n int, a *float64, rs, cs int, b *float64, k int, z float64, bias *float64)

//go:noescape
func sumRowsAVX512(d *float64, m, n int, a *float64, rs, cs int, b *float64, k int, z float64, bias *float64)

//go:noescape
func transposeAVX2(dst *float64, ldd int, src *float64, lds int, rows, cols int)

//go:noescape
func transposeAVX512(dst *float64, ldd int, src *float64, lds int, rows, cols int)

//go:noescape
func dot4RowsAVX2(d *float64, ldd int, a, b *float64, k, n4 int)

//go:noescape
func dot4RowsAVX512(d *float64, ldd int, a, b *float64, k, n8 int)

//go:noescape
func dot1RowAVX2(d, a, b *float64, k, n8 int)

//go:noescape
func tanhAVX2(dst, src *float64, n4 int)

//go:noescape
func tanhAVX512(dst, src *float64, n8 int)

//go:noescape
func reluMaskAVX2(dst, grad, x *float64, n4 int)

//go:noescape
func reluMaskAVX512(dst, grad, x *float64, n8 int)

//go:noescape
func scaleAVX2(x *float64, n4 int, alpha float64)

//go:noescape
func adamAVX2(p, grad, m, v *float64, n4 int, k *[8]float64)

// HostClassOne is the tanh probe's verdict: this process's math.Tanh is
// host class 1's (amd64, math.Exp on its FMA arm; DESIGN.md §8), the
// class every pinned output hash was taken on.
func HostClassOne() bool { return tanhOK } //lint:allow reach inspection accessor: golden_test.go gates the pinned hashes on it
