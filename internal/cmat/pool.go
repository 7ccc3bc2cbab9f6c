package cmat

import (
	"math/bits"
	"sync"

	"negfsim/internal/obs"
)

// Arena telemetry: hit/miss rates of the dense workspace pool, surfaced on
// the observability registry (near-nops while obs recording is disabled).
var (
	obsPoolHit  = obs.GetCounter("cmat.pool.hit")
	obsPoolMiss = obs.GetCounter("cmat.pool.miss")
)

// Workspace arena: size-class pools of scratch matrices, so the steady-state
// inner loops of RGF, SSE and the blocked GEMM engine stop allocating once
// warm. Matrices obtained from GetDense are ordinary *Dense values; returning
// them with PutDense is optional (anything not returned is simply collected
// by the GC) but required to reach zero-allocation steady state.
//
// Pooling contract (see DESIGN.md §9): after PutDense(m), the caller must not
// retain or touch m or any view aliasing m.Data. Code that hands matrices to
// external callers (public results, golden outputs) must hand out matrices it
// will never Put, or copies.

// denseClasses[k] holds *Dense whose backing slice has cap ≥ 1<<k. A matrix
// is stored in the class of floor(log2(cap)) and served from the class of
// ceil(log2(n)), so a served slice always has sufficient capacity.
var denseClasses [48]sync.Pool

// The []int pivot scratch of the LU path is pooled in a mutex-guarded
// freelist rather than a sync.Pool: Put on a sync.Pool boxes the slice
// header on every call, which would put one heap allocation back into every
// factorization. A [][]int stack stores the headers inline.
var (
	intMu   sync.Mutex
	intFree [32][][]int
)

// GetDense returns a zeroed r×c matrix from the workspace arena, growing the
// arena if no suitable buffer is pooled.
func GetDense(r, c int) *Dense {
	m := GetDenseNoZero(r, c)
	clear(m.Data)
	return m
}

// GetDenseNoZero is GetDense without the zeroing pass: its contents are
// whatever the buffer last held, for a block the caller overwrites in full
// before reading it (pack buffers, MulInto and CopyFrom targets).
func GetDenseNoZero(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("cmat: GetDense negative dimensions")
	}
	n := r * c
	if n == 0 {
		return &Dense{Rows: r, Cols: c}
	}
	k := bits.Len(uint(n - 1)) // ceil(log2(n))
	if v := denseClasses[k].Get(); v != nil {
		obsPoolHit.Inc()
		m := v.(*Dense)
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:n]
		return m
	}
	obsPoolMiss.Inc()
	return &Dense{Rows: r, Cols: c, Data: make([]complex128, n, 1<<k)}
}

// PutDense returns m to the workspace arena. m must not be used afterwards.
// nil and zero-capacity matrices are ignored.
func PutDense(m *Dense) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	k := bits.Len(uint(cap(m.Data))) - 1 // floor(log2(cap))
	m.Data = m.Data[:cap(m.Data)]
	denseClasses[k].Put(m)
}

// PutAll returns every non-nil matrix in ms to the arena.
func PutAll(ms ...*Dense) {
	for _, m := range ms {
		PutDense(m)
	}
}

// getInts returns an int scratch slice of length n (contents undefined).
func getInts(n int) []int {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	intMu.Lock()
	if l := len(intFree[k]); l > 0 {
		s := intFree[k][l-1]
		intFree[k] = intFree[k][:l-1]
		intMu.Unlock()
		return s[:n]
	}
	intMu.Unlock()
	return make([]int, n, 1<<k)
}

// putInts returns an int scratch slice to the arena.
func putInts(s []int) {
	if cap(s) == 0 {
		return
	}
	k := bits.Len(uint(cap(s))) - 1
	intMu.Lock()
	intFree[k] = append(intFree[k], s[:cap(s)])
	intMu.Unlock()
}

// GetBlockTri returns an n-block matrix with zeroed bs×bs pooled blocks.
func GetBlockTri(n, bs int) *BlockTri {
	bt := &BlockTri{N: n, Bs: bs,
		Diag:  make([]*Dense, n),
		Upper: make([]*Dense, n-1),
		Lower: make([]*Dense, n-1)}
	for i := 0; i < n; i++ {
		bt.Diag[i] = GetDense(bs, bs)
	}
	for i := 0; i < n-1; i++ {
		bt.Upper[i] = GetDense(bs, bs)
		bt.Lower[i] = GetDense(bs, bs)
	}
	return bt
}

// PutBlockTri returns every block of bt to the arena. bt must not be used
// afterwards.
func PutBlockTri(bt *BlockTri) {
	if bt == nil {
		return
	}
	for _, d := range bt.Diag {
		PutDense(d)
	}
	for i := range bt.Upper {
		PutDense(bt.Upper[i])
		PutDense(bt.Lower[i])
	}
}
