package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
)

func TestAndersonAcceleratesConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	run := func(kind MixerKind) (int, bool) {
		opts := DefaultOptions()
		opts.MaxIter = 14
		opts.Tol = 1e-6
		opts.Mixing = 0.5 // deliberately heavy damping: linear crawls
		opts.Mixer = kind
		res, err := miniSim(t, opts).RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations, res.Converged
	}
	linIters, linConv := run(Linear)
	andIters, andConv := run(Anderson)
	if !andConv {
		t.Fatalf("Anderson failed to converge in %d iterations", andIters)
	}
	// Anderson must need no more GF phases than damped linear mixing, and
	// in this regime strictly fewer (linear at β=0.5 contracts ~2× per
	// iteration; Anderson extrapolates).
	if linConv && andIters > linIters {
		t.Fatalf("Anderson took %d iterations, linear only %d", andIters, linIters)
	}
	if !linConv && andIters >= 14 {
		t.Fatal("Anderson should converge where heavy linear damping does not")
	}
}

func TestAndersonMatchesLinearFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	// Both mixers must find the same physical fixed point.
	res := map[MixerKind]*Result{}
	for _, kind := range []MixerKind{Linear, Anderson} {
		opts := DefaultOptions()
		opts.MaxIter = 14
		opts.Tol = 1e-7
		opts.Mixer = kind
		r, err := miniSim(t, opts).RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res[kind] = r
	}
	d := res[Linear].GLess.MaxAbsDiff(res[Anderson].GLess)
	if d > 1e-4 {
		t.Fatalf("mixers converged to different G^< (diff %g)", d)
	}
}

func TestAndersonStateFallbacks(t *testing.T) {
	// Depth-0 history behaves like damped mixing.
	a := newAndersonState(0)
	x := []complex128{1, 2}
	g := []complex128{3, 6}
	out := a.update(x, g, 0.5)
	if out[0] != 2 || out[1] != 4 {
		t.Fatalf("first Anderson step should be damped mixing, got %v", out)
	}
	// Identical residuals (degenerate history) must not blow up.
	out = a.update(out, []complex128{out[0] + 2, out[1] + 4}, 0.5)
	for _, v := range out {
		if v != v { // NaN check
			t.Fatal("NaN from degenerate Anderson history")
		}
	}
}

// refAnderson is the Anderson update as it was before the history became
// a ring: it allocates every vector afresh each step. It is the reference
// the in-place ring is pinned against.
type refAnderson struct {
	history int
	xs, fs  [][]complex128
}

func (a *refAnderson) update(x, g []complex128, beta float64) []complex128 {
	f := make([]complex128, len(x))
	for i := range f {
		f[i] = g[i] - x[i]
	}
	a.xs = append(a.xs, append([]complex128(nil), x...))
	a.fs = append(a.fs, f)
	if len(a.xs) > a.history+1 {
		a.xs = a.xs[1:]
		a.fs = a.fs[1:]
	}
	m := len(a.xs) - 1
	bc := complex(beta, 0)
	damped := func() []complex128 {
		out := make([]complex128, len(x))
		for i := range out {
			out[i] = x[i] + bc*f[i]
		}
		return out
	}
	if m == 0 {
		return damped()
	}
	df := make([][]complex128, m)
	for j := 0; j < m; j++ {
		col := make([]complex128, len(f))
		prev := a.fs[m-1-j]
		for i := range col {
			col[i] = f[i] - prev[i]
		}
		df[j] = col
	}
	gram := cmat.NewDense(m, m)
	rhs := cmat.NewDense(m, 1)
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			gram.Set(r, c, dot(df[r], df[c]))
		}
		rhs.Set(r, 0, dot(df[r], f))
		gram.Set(r, r, gram.At(r, r)+complex(1e-12, 0))
	}
	gamma, err := cmat.Solve(gram, rhs)
	if err != nil {
		return damped()
	}
	out := make([]complex128, len(x))
	for i := range out {
		xb := x[i]
		fb := f[i]
		for j := 0; j < m; j++ {
			gj := gamma.At(j, 0)
			xb -= gj * (x[i] - a.xs[m-1-j][i])
			fb -= gj * (f[i] - a.fs[m-1-j][i])
		}
		out[i] = xb + bc*fb
	}
	return out
}

// TestAndersonRingMatchesReference drives the ring-buffer Anderson state
// and the allocating reference through the same 10-step random sequence
// (each step's iterate is the last output) and requires bit-identical
// iterates. Steps 4 and 5 take integer iterates with one large integer
// residual, exactly, so at step 6 the two residual differences coincide,
// the regularized Gram matrix is exactly singular and both take the damped
// fallback.
func TestAndersonRingMatchesReference(t *testing.T) {
	const n, beta = 40, 0.7
	for _, history := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(history)))
		random := func(scale float64, integer bool) []complex128 {
			v := make([]complex128, n)
			for i := range v {
				re, im := scale*rng.NormFloat64(), scale*rng.NormFloat64()
				if integer {
					re, im = math.Round(re), math.Round(im)
				}
				v[i] = complex(re, im)
			}
			return v
		}
		ring, ref := newAndersonState(history), &refAnderson{history: history}
		x := random(1, false)
		big := random(1e6, true)
		fell := false
		for step := 1; step <= 10; step++ {
			g := random(1, false)
			if step == 4 || step == 5 {
				x = random(8, true)
				for i := range g {
					g[i] = x[i] + big[i]
				}
			}
			want := ref.update(x, g, beta)
			got := ring.update(x, g, beta)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("history %d, step %d: element %d = %v, reference %v", history, step, i, got[i], want[i])
				}
			}
			if step == 6 && history >= 2 {
				fell = true
				for i := range want {
					if want[i] != x[i]+complex(beta, 0)*(g[i]-x[i]) {
						fell = false
					}
				}
			}
			x = append(x[:0], got...)
		}
		if history >= 2 && !fell {
			t.Errorf("history %d: step 6 did not exercise the degenerate-Gram fallback", history)
		}
	}
}
