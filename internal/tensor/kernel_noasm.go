//go:build !amd64

package tensor

// useAVX2 is never set off amd64: the Go kernels in tensor.go are the
// only path, and the routines below exist to let that file compile.
var useAVX2 = false

// useAVX512 is useAVX2's 512-bit level, likewise never set here.
var useAVX512 = false

// tanhOK is the amd64 probe's verdict; there is no kernel to probe here.
const tanhOK = false

// tanh512OK is the amd64 probe's verdict on tanhAVX512.
const tanh512OK = false

func axpyAVX2(x, y *float64, n int, alpha float64) { panic("tensor: no AVX2") }

func sumRowsAVX2(d *float64, m, n int, a *float64, rs, cs int, b *float64, k int, z float64) {
	panic("tensor: no AVX2")
}

func transposeAVX2(dst *float64, ldd int, src *float64, lds int, rows, cols int) {
	panic("tensor: no AVX2")
}

func axpyAVX512(x, y *float64, n16 int, alpha float64) { panic("tensor: no AVX-512") }

func sumRowsAVX512(d *float64, m, n int, a *float64, rs, cs int, b *float64, k int, z float64) {
	panic("tensor: no AVX-512")
}

func transposeAVX512(dst *float64, ldd int, src *float64, lds int, rows, cols int) {
	panic("tensor: no AVX-512")
}

func dot4RowsAVX2(d *float64, ldd int, a, b *float64, k, n4 int) { panic("tensor: no AVX2") }

func dot4RowsAVX512(d *float64, ldd int, a, b *float64, k, n8 int) { panic("tensor: no AVX-512") }

func dot1RowAVX2(d, a, b *float64, k, n8 int) { panic("tensor: no AVX2") }

func tanhAVX2(dst, src *float64, n4 int) { panic("tensor: no AVX2") }

func tanhAVX512(dst, src *float64, n8 int) { panic("tensor: no AVX-512") }

func scaleAVX2(x *float64, n4 int, alpha float64) { panic("tensor: no AVX2") }

func adamAVX2(p, grad, m, v *float64, n4 int, k *[8]float64) { panic("tensor: no AVX2") }

// HostClassOne is the tanh probe's verdict; no port but amd64 is host
// class 1 (DESIGN.md §8).
func HostClassOne() bool { return false }
