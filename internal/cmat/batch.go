package cmat

import "negfsim/internal/pool"

// Triple is one independent product in a batched GEMM dispatch:
// Out += A·B over Span (the zero Span is the plain product; see
// MulSpanAddInto).
type Triple struct {
	Out, A, B *Dense
	Span      Span
}

// batchSerialWork is the total R·K·C volume below which a batch runs
// serially: scheduling a handful of Norb³ products over the pool costs more
// than the products themselves.
const batchSerialWork = 64 * 1024

// BatchMulAddInto performs every product of the batch, accumulating into the
// respective Out matrices. The products must be independent: no Out may
// alias another triple's Out, A or B (A and B operands may be shared freely
// between triples — they are only read).
//
// This is the runtime-level analogue of the paper's SDFG transformation that
// fuses myriads of tiny Norb×Norb multiplications into batched kernel
// launches: the SSE and block-tridiagonal RGF stages hand the pool many
// independent small products at once instead of spawning goroutines (or
// running serially) per product. The batch's flops, 8·ΣR·K·C over each
// triple's span, are published to Counter once, not once per product.
func BatchMulAddInto(batch []Triple) {
	work := 0
	for _, t := range batch {
		if t.A.Cols != t.B.Rows {
			panic("cmat: BatchMulAddInto dimension mismatch")
		}
		if t.Out.Rows != t.A.Rows || t.Out.Cols != t.B.Cols {
			panic("cmat: BatchMulAddInto output shape mismatch")
		}
		work += t.A.spanWork(t.B, t.Span)
	}
	if len(batch) <= 1 || work < batchSerialWork {
		for _, t := range batch {
			t.A.mulSpan(t.Out, t.B, t.Span, true)
		}
	} else {
		pool.ParallelFor(len(batch), pool.Size(), func(lo, hi int) {
			for _, t := range batch[lo:hi] {
				t.A.mulSpan(t.Out, t.B, t.Span, true)
			}
		})
	}
	Counter.AddFlops(uint64(8 * work))
}
