//go:build !amd64

package tensor

// useAVX2 is never set off amd64: the Go kernels in tensor.go are the
// only path, and the routines below exist to let that file compile.
var useAVX2 = false

// tanhOK is the amd64 probe's verdict; there is no kernel to probe here.
const tanhOK = false

func axpyAVX2(x, y *float64, n int, alpha float64) { panic("tensor: no AVX2") }

func axpy4AVX2(d *float64, n int, b *float64, off *[4]int, coef *[4]float64) {
	panic("tensor: no AVX2")
}

func dot4RowsAVX2(d *float64, ldd int, a, b *float64, k, n4 int) { panic("tensor: no AVX2") }

func dot1RowAVX2(d, a, b *float64, k, n8 int) { panic("tensor: no AVX2") }

func tanhAVX2(dst, src *float64, n4 int) { panic("tensor: no AVX2") }
