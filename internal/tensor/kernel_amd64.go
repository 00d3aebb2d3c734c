package tensor

import "math"

// useAVX2 selects the assembly micro-kernels of kernel_amd64.s under
// MatMul, MatMulATB, MatMulABT, Axpy and TanhInto. It is set once,
// here, from what the CPU and the OS report; the tests clear it to run
// the Go kernels on the same box.
var useAVX2 = hasAVX2()

// tanhOK says that tanhAVX2 returns math.Tanh's bits in this process.
// The kernel is a transcription of what math.Tanh executes where
// math.Exp takes its FMA arm; on a host or under a GODEBUG where it
// takes the other arm, or under a toolchain that has rewritten either
// function, the probe finds the difference and TanhInto stays on
// math.Tanh. It is measured once, here, and never assumed.
var tanhOK = useAVX2 && hasFMA() && tanhProbe()

// tanhProbeBits are inputs at and beside every branch point of
// math.Tanh, followed by sixteen on which the FMA and the non-FMA arm
// of math.Exp round tanh to different bits. Those were searched for
// (go1.24, about one input in 280 of [0.625, 8] separates the arms), so
// a random table of this size would most likely hold none.
var tanhProbeBits = [28]uint64{
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
}

func tanhProbe() bool {
	var in, out [len(tanhProbeBits)]float64
	for i, b := range tanhProbeBits {
		in[i] = math.Float64frombits(b)
	}
	tanhAVX2(&out[0], &in[0], len(in))
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

//go:noescape
func axpyAVX2(x, y *float64, n int, alpha float64)

//go:noescape
func axpy4AVX2(d *float64, n int, b *float64, off *[4]int, coef *[4]float64)

//go:noescape
func dot4RowsAVX2(d *float64, ldd int, a, b *float64, k, n4 int)

//go:noescape
func dot1RowAVX2(d, a, b *float64, k, n8 int)

//go:noescape
func tanhAVX2(dst, src *float64, n4 int)
