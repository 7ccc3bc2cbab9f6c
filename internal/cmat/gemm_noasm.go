//go:build !amd64

package cmat

// Non-amd64 hosts always use the pure Go micro-kernel and scalar loops.
var useAsmKernel = false

func gemmKernel4x4(a, bp, o *complex128, lda, ldo, kc int, acc bool) {
	panic("cmat: assembly GEMM kernel unavailable on this architecture")
}

func gemmKernel2x4(a0, a1, bp, o0, o1 *complex128, kc int, acc bool) {
	panic("cmat: assembly GEMM kernel unavailable on this architecture")
}

func gemmKernel1x4(a0, bp, o0 *complex128, kc int, acc bool) {
	panic("cmat: assembly GEMM kernel unavailable on this architecture")
}

func caxpySub(y, x *complex128, mr, mi float64, n int) {
	panic("cmat: assembly AXPY kernel unavailable on this architecture")
}

func caxpyAdd(y, x *complex128, mr, mi float64, n int) {
	panic("cmat: assembly AXPY kernel unavailable on this architecture")
}
