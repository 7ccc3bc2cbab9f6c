package core

import (
	"negfsim/internal/cmat"
	"negfsim/internal/sse"
)

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
// The history is a ring of history+1 slots; a slot, a residual-difference
// column and the returned iterate are allocated the first time the history
// reaches them and reused by every later update, as are the concatenated
// self-energies of mix. A short run allocates only the slots it uses, and
// once the ring is full no update allocates.
type andersonState struct {
	history int
	// xs[i], fs[i] hold an iterate x_k and its residual f_k = g(x_k) − x_k;
	// head is the slot of the newest pair and n the number of pairs held.
	xs, fs  [][]complex128
	head, n int
	// px[j], pf[j] alias the pair j+1 steps older than the newest; df[j]
	// is f_k − pf[j].
	px, pf, df [][]complex128
	out        []complex128
	x, g       []complex128 // mix's concatenated input and image
}

func newAndersonState(history int) *andersonState {
	if history < 1 {
		history = 1
	}
	return &andersonState{history: history,
		xs: make([][]complex128, history+1), fs: make([][]complex128, history+1),
		px: make([][]complex128, history), pf: make([][]complex128, history), df: make([][]complex128, history),
		head: history}
}

// vec returns *v, allocating it with n elements on first use.
func vec(v *[]complex128, n int) []complex128 {
	if len(*v) != n {
		*v = make([]complex128, n)
	}
	return *v
}

// mix advances the self-energies one Anderson step in place: se ← the next
// iterate from se and the SSE phase's image out of it.
func (a *andersonState) mix(se selfEnergy, out sse.PhaseOutput, beta float64) {
	a.x = concatSelfEnergies(a.x, se.sigL, se.sigG, se.piL, se.piG)
	a.g = concatSelfEnergies(a.g, out.SigmaLess, out.SigmaGtr, out.PiLess, out.PiGtr)
	scatterSelfEnergies(a.update(a.x, a.g, beta), se.sigL, se.sigG, se.piL, se.piG)
}

// update consumes the current iterate x and its fixed-point image g,
// returning the next iterate, in storage the next update overwrites. With
// an empty history it reduces to damped mixing with factor beta.
func (a *andersonState) update(x, g []complex128, beta float64) []complex128 {
	n := len(x)
	a.head = (a.head + 1) % len(a.xs)
	a.n = min(a.n+1, len(a.xs))
	f := vec(&a.fs[a.head], n)
	for i := range f {
		f[i] = g[i] - x[i]
	}
	copy(vec(&a.xs[a.head], n), x)
	m := a.n - 1 // history depth actually available
	out := vec(&a.out, n)
	bc := complex(beta, 0)
	if m == 0 {
		for i := range out {
			out[i] = x[i] + bc*f[i]
		}
		return out
	}
	for j := 0; j < m; j++ {
		prev := (a.head - 1 - j + len(a.xs)) % len(a.xs)
		a.px[j], a.pf[j] = a.xs[prev], a.fs[prev]
	}
	// Solve min ‖f_k − Σ_j γ_j (f_k − f_{k−j-1})‖ via the normal equations
	// of the residual-difference matrix (m is tiny, 2–4).
	df := a.df[:m]
	for j := range df {
		col, prev := vec(&df[j], n), a.pf[j]
		for i := range col {
			col[i] = f[i] - prev[i]
		}
	}
	gram := cmat.NewDense(m, m)
	rhs := cmat.NewDense(m, 1)
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			gram.Set(r, c, dot(df[r], df[c]))
		}
		rhs.Set(r, 0, dot(df[r], f))
		// Tikhonov regularization keeps near-collinear histories harmless.
		gram.Set(r, r, gram.At(r, r)+complex(1e-12, 0))
	}
	gamma, err := cmat.Solve(gram, rhs)
	if err != nil {
		// Degenerate history: fall back to damped mixing.
		for i := range out {
			out[i] = x[i] + bc*f[i]
		}
		return out
	}
	for i := range out {
		// x̄ = x_k − Σ γ_j (x_k − x_{k−j−1}), f̄ analogous; next = x̄ + β·f̄.
		xb := x[i]
		fb := f[i]
		for j := 0; j < m; j++ {
			gj := gamma.At(j, 0)
			xb -= gj * (x[i] - a.px[j][i])
			fb -= gj * (f[i] - a.pf[j][i])
		}
		out[i] = xb + bc*fb
	}
	return out
}

func dot(a, b []complex128) complex128 {
	var s complex128
	for i := range a {
		s += conj(a[i]) * b[i]
	}
	return s
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }
