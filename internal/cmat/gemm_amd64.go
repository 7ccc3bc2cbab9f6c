//go:build amd64

package cmat

// On amd64 the blocked engine's micro-kernels and the complex AXPY have
// AVX2+FMA assembly variants (gemm_amd64.s), selected at process start by
// CPUID (useAsmKernel). The GEMM kernels vectorize the complex
// multiply-accumulate two complexes per ymm register, with the ai sign
// folded into a broadcast-XOR so each complex MAC costs two FMAs: a 4×4
// tile for the body of the row range, 2×4 and 1×4 tiles for the R mod 4
// rows left over, all giving an element the same bits. The AXPY rounds as
// Go's scalar complex128 arithmetic does (no FMA). The pure Go micro2x4 and
// the scalar loops cover every other case; tests flip useAsmKernel to run
// both paths.

// gemmKernel4x4 computes a 4×4 complex output tile over kc steps and stores
// it (accumulating when acc) at o. a points at the tile's first row of the
// left operand (unit stride over k, lda elements between rows), bp at a
// packed gemmNR strip of B, o at the tile's first output element (ldo
// elements between rows). kc must be positive and the strip full-width.
//
//go:noescape
func gemmKernel4x4(a, bp, o *complex128, lda, ldo, kc int, acc bool)

// gemmKernel2x4 computes a 2×4 complex output tile over kc steps and stores
// it (accumulating when acc) at o0/o1. a0 and a1 are rows of the left
// operand (unit stride over k), bp a packed gemmNR strip of B. kc must be
// positive and the strip full-width.
//
//go:noescape
func gemmKernel2x4(a0, a1, bp, o0, o1 *complex128, kc int, acc bool)

// gemmKernel1x4 is the single-row variant for the odd row tail.
//
//go:noescape
func gemmKernel1x4(a0, bp, o0 *complex128, kc int, acc bool)

// caxpySub computes y[j] -= (mr + i·mi)·x[j] for j < n, bitwise as
// the scalar complex128 loop does.
//
//go:noescape
func caxpySub(y, x *complex128, mr, mi float64, n int)

// caxpyAdd computes y[j] += (mr + i·mi)·x[j] for j < n, bitwise as
// the scalar complex128 loop does.
//
//go:noescape
func caxpyAdd(y, x *complex128, mr, mi float64, n int)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (OS-enabled SIMD state).
func xgetbv() (eax, edx uint32)

// haveAVX2FMA reports whether the CPU and OS support AVX2 + FMA + the ymm
// state the assembly kernels need.
func haveAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// useAsmKernel gates the assembly kernels. Tests flip it to cover both
// paths on capable hosts.
var useAsmKernel = haveAVX2FMA()
