package tensor

// useAVX2 selects the assembly micro-kernels of kernel_amd64.s under
// MatMul, MatMulATB, MatMulABT and Axpy. It is set once, here, from
// what the CPU and the OS report; the tests clear it to run the Go
// kernels on the same box.
var useAVX2 = hasAVX2()

// Implemented in kernel_amd64.s. Each takes pointers into slices whose
// full extent the Go caller has already sliced, so a shape that does
// not fit panics there and never reaches the assembly.

func hasAVX2() bool

//go:noescape
func axpyAVX2(x, y *float64, n int, alpha float64)

//go:noescape
func axpy4AVX2(d *float64, n int, b *float64, off *[4]int, coef *[4]float64)

//go:noescape
func dot4RowsAVX2(d *float64, ldd int, a, b *float64, k, n4 int)

//go:noescape
func dot1RowAVX2(d, a, b *float64, k, n8 int)
