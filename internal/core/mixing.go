package core

import "negfsim/internal/cmat"

// Self-consistency acceleration. The paper's Born loop iterates
// Σ_{k+1} = g(Σ_k) with plain (optionally damped) updates; production NEGF
// codes accelerate this fixed-point iteration. Two mixers are provided:
//
//   - Linear: Σ_{k+1} = (1−β)·Σ_k + β·g(Σ_k) — the default, always stable
//     for β small enough;
//   - Anderson: type-II Anderson acceleration with a short history, which
//     extrapolates through the residual space and typically converges in
//     far fewer GF phases (each of which is the expensive part).

// MixerKind selects the self-consistency update rule.
type MixerKind int

const (
	// Linear is damped fixed-point mixing.
	Linear MixerKind = iota
	// Anderson is Anderson acceleration (type II) with a short history.
	Anderson
)

// andersonState holds the iterate/residual history for Anderson mixing.
// The history is a ring of history+1 iterate/residual slot pairs; a slot
// is allocated the first time the history reaches it and reused by every
// later update, so a short run allocates only the slots it uses and once
// the ring is full no update allocates a vector. An update reads the
// Born loop's contiguous Σ^≷/Π^≷ vector and the SSE phase's image of it
// and writes the next iterate over the first in place. The residual
// differences f_k − f_{k−j−1} are never stored whole: the one pass that
// accumulates the normal equations forms them gramBlock indices at a time
// in a scratch that stays in the first-level cache.
type andersonState struct {
	history int
	// xs[i], fs[i] hold an iterate x_k and its residual f_k = g(x_k) − x_k;
	// head is the slot of the newest pair and n the number of pairs held.
	xs, fs  [][]complex128
	head, n int
	// px[j], pf[j] alias the pair j+1 steps older than the newest;
	// d[j·gramBlock+i] holds the residual difference f_k − pf[j] at the
	// i-th index of the current block.
	px, pf [][]complex128
	d      []complex128
}

// gramBlock is the number of indices per step of the Gram pass: history ×
// gramBlock residual differences (12 KiB at the default history) stay in
// the first-level cache while every Gram entry sums over them.
const gramBlock = 256

func newAndersonState(history int) *andersonState {
	if history < 1 {
		history = 1
	}
	return &andersonState{history: history,
		xs: make([][]complex128, history+1), fs: make([][]complex128, history+1),
		px: make([][]complex128, history), pf: make([][]complex128, history), d: make([]complex128, history*gramBlock),
		head: history}
}

// vec returns *v, allocating it with n elements on first use.
func vec(v *[]complex128, n int) []complex128 {
	if len(*v) != n {
		*v = make([]complex128, n)
	}
	return *v
}

// update consumes the current iterate x and its fixed-point image g and
// overwrites x with the next iterate. With an empty history it reduces to
// damped mixing with factor beta.
func (a *andersonState) update(x, g []complex128, beta float64) {
	n := len(x)
	a.head = (a.head + 1) % len(a.xs)
	a.n = min(a.n+1, len(a.xs))
	f := vec(&a.fs[a.head], n)
	for i := range f {
		f[i] = g[i] - x[i]
	}
	copy(vec(&a.xs[a.head], n), x)
	m := a.n - 1 // history depth actually available
	bc := complex(beta, 0)
	damped := func() {
		for i := range x {
			x[i] = x[i] + bc*f[i]
		}
	}
	if m == 0 {
		damped()
		return
	}
	for j := 0; j < m; j++ {
		prev := (a.head - 1 - j + len(a.xs)) % len(a.xs)
		a.px[j], a.pf[j] = a.xs[prev], a.fs[prev]
	}
	// Solve min ‖f_k − Σ_j γ_j (f_k − f_{k−j-1})‖ via the normal equations
	// of the residual-difference matrix (m is tiny, 2–4). One pass over f
	// and the history accumulates every entry of the Gram matrix and the
	// right-hand side, block by block; each entry is still one serial sum
	// in index order, carried from block to block, so it is bitwise the
	// dot product of two whole difference columns.
	gram := cmat.NewDense(m, m)
	rhs := cmat.NewDense(m, 1)
	for lo := 0; lo < n; lo += gramBlock {
		fb := f[lo:min(lo+gramBlock, n)]
		col := func(j int) []complex128 { return a.d[j*gramBlock : j*gramBlock+len(fb)] }
		for j := 0; j < m; j++ {
			dj, pb := col(j), a.pf[j][lo:lo+len(fb)]
			for i := range dj {
				dj[i] = fb[i] - pb[i]
			}
		}
		for r := 0; r < m; r++ {
			dr := col(r)
			for c := 0; c < m; c++ {
				gram.Data[r*m+c] = dotFrom(gram.Data[r*m+c], dr, col(c))
			}
			rhs.Data[r] = dotFrom(rhs.Data[r], dr, fb)
		}
	}
	for r := 0; r < m; r++ {
		// Tikhonov regularization keeps near-collinear histories harmless.
		gram.Set(r, r, gram.At(r, r)+complex(1e-12, 0))
	}
	gamma, err := cmat.Solve(gram, rhs)
	if err != nil {
		// Degenerate history: fall back to damped mixing.
		damped()
		return
	}
	for i := range x {
		// x̄ = x_k − Σ γ_j (x_k − x_{k−j−1}), f̄ analogous; next = x̄ + β·f̄.
		xb := x[i]
		fb := f[i]
		for j := 0; j < m; j++ {
			gj := gamma.At(j, 0)
			xb -= gj * (x[i] - a.px[j][i])
			fb -= gj * (f[i] - a.pf[j][i])
		}
		x[i] = xb + bc*fb
	}
}

// dotFrom returns s + Σ_i conj(a_i)·b_i, summed in index order.
func dotFrom(s complex128, a, b []complex128) complex128 {
	b = b[:len(a)]
	for i := range a {
		s += conj(a[i]) * b[i]
	}
	return s
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }
