package rgf

import (
	"fmt"
	"slices"

	"negfsim/internal/cmat"
)

// Retarded holds the output of the retarded RGF pass: the diagonal blocks of
// G^R = A⁻¹ and the left-connected Green's functions gL needed by the lesser
// pass.
type Retarded struct {
	Diag []*cmat.Dense // G^R[n,n]
	gL   []*cmat.Dense // left-connected g^L[n]
	a    *cmat.BlockTri
	sup  *couplings // a's coupling supports, returned with gL
}

// SolveRetarded runs the forward/backward recursion on the block-tridiagonal
// inverse-GF operator A (boundary self-energies must already be folded into
// A's corner blocks):
//
//	forward:  gL[0] = A[0,0]⁻¹,  gL[n] = (A[n,n] − A[n,n−1]·gL[n−1]·A[n−1,n])⁻¹
//	backward: G[N−1] = gL[N−1], G[n] = gL[n] + gL[n]·A[n,n+1]·G[n+1]·A[n+1,n]·gL[n]
//
// The backward half is sweep with no Keldysh sets. All result and
// intermediate blocks come from the workspace arena; call Release (or keep
// the blocks and let the GC take them) when done.
func SolveRetarded(a *cmat.BlockTri) (*Retarded, error) {
	r, err := newRetarded(a, nil, nil)
	if err != nil {
		return nil, err
	}
	r.sweep()
	return &r, nil
}

// newRetarded works out a's coupling supports and runs the forward
// recursion on a. diag, when non-nil, is a G^R diagonal computed elsewhere
// (the spatial solver's), which sweep keeps; gl, when non-empty, is the
// pooled leading run gL[0..len(gl)−1] of the recursion, which it continues.
func newRetarded(a *cmat.BlockTri, diag, gl []*cmat.Dense) (Retarded, error) {
	sup := couplingsOf(a)
	gl, err := forwardGL(a, sup, gl)
	if err != nil {
		sup.release()
		return Retarded{}, err
	}
	return Retarded{Diag: diag, gL: gl, a: a, sup: sup}, nil
}

// forwardGL runs only the forward recursion, returning the left-connected
// g^L blocks (all pooled): gL[0] = A[0,0]⁻¹ and
// gL[i] = (A[i,i] − A[i,i−1]·gL[i−1]·A[i−1,i])⁻¹, whose two products run
// over the couplings' supports sup. It starts after the blocks gl already
// holds (none: from block 0) and takes them over.
func forwardGL(a *cmat.BlockTri, sup *couplings, gl []*cmat.Dense) ([]*cmat.Dense, error) {
	n, bs := a.N, a.Bs
	gl = slices.Grow(gl, n-len(gl))
	if len(gl) == 0 {
		g := cmat.GetDenseNoZero(bs, bs)
		if err := cmat.InverseInto(g, a.Diag[0]); err != nil {
			cmat.PutDense(g)
			return nil, fmt.Errorf("rgf: forward block 0: %w", err)
		}
		gl = append(gl, g)
	}
	t1 := cmat.GetDenseNoZero(bs, bs)
	t2 := cmat.GetDenseNoZero(bs, bs)
	for i := len(gl); i < n; i++ {
		lo, up := sup.lower[i-1], sup.upper[i-1]
		a.Lower[i-1].MulSpanInto(t1, gl[i-1], cmat.Span{Rows: lo.Rows, Inner: lo.Cols})
		t1.MulSpanInto(t2, a.Upper[i-1], cmat.Span{Rows: lo.Rows, Inner: up.Rows, Cols: up.Cols})
		t2.ScaleInPlace(-1)
		t2.AddInPlace(a.Diag[i])
		g := cmat.GetDenseNoZero(bs, bs)
		if err := cmat.InverseInto(g, t2); err != nil {
			cmat.PutAll(g, t1, t2)
			cmat.PutAll(gl...)
			return nil, fmt.Errorf("rgf: forward block %d: %w", i, err)
		}
		gl = append(gl, g)
	}
	cmat.PutAll(t1, t2)
	return gl, nil
}

// Release returns every block the solve drew from the workspace arena. The
// Retarded value (including Diag and anything computed from gL) must not be
// used afterwards. The operator a is the caller's and is left alone.
func (r *Retarded) Release() {
	for _, d := range r.Diag {
		cmat.PutDense(d)
	}
	r.Diag = nil
	r.releaseGL()
}

// releaseGL returns only the left-connected helper blocks (and the coupling
// supports), keeping Diag alive — for callers that hand Diag onward as a
// result.
func (r *Retarded) releaseGL() {
	for _, g := range r.gL {
		cmat.PutDense(g)
	}
	r.gL = nil
	r.sup.release()
	r.sup = nil
}

// OffDiagLower returns G^R[n+1, n] = −G^R[n+1,n+1]·A[n+1,n]·gL[n], the
// sub-diagonal block of the retarded Green's function, in an arena block.
func (r *Retarded) OffDiagLower(n int) *cmat.Dense {
	lo := r.sup.lower[n]
	t, out := cmat.GetDenseNoZero(r.a.Bs, r.a.Bs), cmat.GetDenseNoZero(r.a.Bs, r.a.Bs)
	r.Diag[n+1].MulSpanInto(t, r.a.Lower[n], cmat.Span{Inner: lo.Rows, Cols: lo.Cols})
	t.MulSpanInto(out, r.gL[n], cmat.Span{Inner: lo.Cols})
	out.ScaleInPlace(-1)
	cmat.PutDense(t)
	return out
}

// OffDiagUpper returns G^R[n, n+1] = −gL[n]·A[n,n+1]·G^R[n+1,n+1], in an
// arena block.
func (r *Retarded) OffDiagUpper(n int) *cmat.Dense {
	up := r.sup.upper[n]
	t, out := cmat.GetDenseNoZero(r.a.Bs, r.a.Bs), cmat.GetDenseNoZero(r.a.Bs, r.a.Bs)
	r.gL[n].MulSpanInto(t, r.a.Upper[n], cmat.Span{Inner: up.Rows, Cols: up.Cols})
	t.MulSpanInto(out, r.Diag[n+1], cmat.Span{Inner: up.Cols})
	out.ScaleInPlace(-1)
	cmat.PutDense(t)
	return out
}

// SolveKeldysh computes the diagonal blocks of G^≷ = G^R·Σ^≷·G^A on the
// known G^R of r, for a block-diagonal Σ^≷ (per-RGF-block matrices; contact
// Σ^≷ is folded into the corner blocks by the caller). It is sweep with one
// Keldysh set; the recursion is
//
//	g<L[0] = gL[0]·Σ[0]·gL[0]^H
//	g<L[n] = gL[n]·(Σ[n] + A[n,n−1]·g<L[n−1]·A[n,n−1]^H)·gL[n]^H
//	G<[N−1] = g<L[N−1]
//	G<[n] = g<L[n] + gL[n]·A[n,n+1]·G<[n+1]·A[n,n+1]^H·gL[n]^H
//	        + M·g<L[n] + g<L[n]·M^H,   M = gL[n]·A[n,n+1]·G^R[n+1]·A[n+1,n]
//
// The point solves take G^< and G^> from one sweep instead of two calls.
func (r *Retarded) SolveKeldysh(sigma []*cmat.Dense) []*cmat.Dense {
	n := r.a.N
	if len(sigma) != n {
		panic(fmt.Sprintf("rgf: SolveKeldysh got %d self-energy blocks for %d RGF blocks", len(sigma), n))
	}
	return r.sweep(sigma)
}

// sweep is the package's one backward recursion, behind SolveRetarded (no
// Keldysh sets), SolveKeldysh (one) and solveOpen (G^< and G^>, the most it
// carries). A Retarded without a diagonal gets G^R from the sweep itself;
// one with Diag set keeps it. Each set is a block-diagonal Σ^≷ whose forward
// recursion runs in one loop with the other's, sharing gL[i]^H and A^H. The
// backward walk forms u = gL[i]·A[i,i+1], p = u·G^R[i+1] and M = p·A[i+1,i]
// once per block and feeds them to G^R[i] = gL[i] + M·gL[i] and to every
// set. Each product has the operands and order of a separate solve's, so the
// bits are the same. Every product with a coupling block, or with u, M,
// x·A^H or M^H, which inherit a coupling's rows or columns, runs over the
// couplings' supports (cmat.Span), which skips only exact zero terms. It
// returns the sets' G^≷ diagonals one after the other.
func (r *Retarded) sweep(sets ...[]*cmat.Dense) []*cmat.Dense {
	a := r.a
	n, bs, k := a.N, a.Bs, len(sets)
	// g[s*n+i] is set s's left-connected g≷L[i] after the forward loop. The
	// backward walk replaces it by G≷[i] and returns it to the arena; G≷[n−1]
	// is g≷L[n−1] as it stands. Every block taken without zeroing below is
	// written in full before it is read.
	g := make([]*cmat.Dense, k*n)
	t1, t2 := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	h, ah := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs) // gL[i]^H, a coupling block's A^H
	for i := 0; i < n && k > 0; i++ {
		r.gL[i].ConjTransposeInto(h)
		var lo cmat.Support
		if i > 0 {
			lo = r.sup.lower[i-1]
			a.Lower[i-1].ConjTransposeInto(ah)
		}
		for s, sigma := range sets {
			inner := sigma[i]
			if i > 0 {
				// inner = Σ[i] + A[i,i−1]·g≷L[i−1]·A[i,i−1]^H
				a.Lower[i-1].MulSpanInto(t1, g[s*n+i-1], cmat.Span{Rows: lo.Rows, Inner: lo.Cols})
				t1.MulSpanInto(t2, ah, cmat.Span{Rows: lo.Rows, Inner: lo.Cols, Cols: lo.Rows})
				t2.AddInPlace(sigma[i])
				inner = t2
			}
			r.gL[i].MulInto(t1, inner)
			g[s*n+i] = cmat.GetDenseNoZero(bs, bs)
			t1.MulInto(g[s*n+i], h)
		}
	}

	retarded := r.Diag == nil
	if retarded { // Diag[n−1] copies gL[n−1] so Release returns each block once
		r.Diag = make([]*cmat.Dense, n)
		r.Diag[n-1] = cmat.GetDenseNoZero(bs, bs)
		r.Diag[n-1].CopyFrom(r.gL[n-1])
	}
	u, p, m, mh := t1, t2, cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	y, z := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	x := [2]*cmat.Dense{cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)} // u·G≷[i+1] per set
	var batch [3]cmat.Triple
	for i := n - 2; i >= 0; i-- {
		gli := r.gL[i]
		lo, up := r.sup.lower[i], r.sup.upper[i]
		// u's products against G^R[i+1] and every G≷[i+1] are independent:
		// one batch. u has A[i,i+1]'s columns, M has A[i+1,i]'s.
		gli.MulSpanInto(u, a.Upper[i], cmat.Span{Inner: up.Rows, Cols: up.Cols})
		byU := cmat.Span{Inner: up.Cols}
		p.Zero()
		batch[0] = cmat.Triple{Out: p, A: u, B: r.Diag[i+1], Span: byU}
		for s := 0; s < k; s++ {
			x[s].Zero()
			batch[1+s] = cmat.Triple{Out: x[s], A: u, B: g[s*n+i+1], Span: byU}
		}
		cmat.BatchMulAddInto(batch[:1+k])
		p.MulSpanInto(m, a.Lower[i], cmat.Span{Inner: lo.Rows, Cols: lo.Cols})
		byM := cmat.Span{Inner: lo.Cols}
		if retarded {
			r.Diag[i] = cmat.GetDenseNoZero(bs, bs)
			r.Diag[i].CopyFrom(gli)
			m.MulSpanAddInto(r.Diag[i], gli, byM)
		}
		if k == 0 {
			continue
		}
		gli.ConjTransposeInto(h)
		a.Upper[i].ConjTransposeInto(ah)
		m.ConjTransposeInto(mh)
		for s := 0; s < k; s++ {
			// G≷[i] = g≷L[i] + x·A[i,i+1]^H·gL[i]^H + M·g≷L[i] + g≷L[i]·M^H;
			// the two corrections write disjoint accumulators: one batch.
			// x·A^H has A[i,i+1]'s rows as its columns, M^H M's columns as
			// its rows.
			li := g[s*n+i]
			x[s].MulSpanInto(y, ah, cmat.Span{Inner: up.Cols, Cols: up.Rows})
			y.MulSpanInto(x[s], h, cmat.Span{Inner: up.Rows})
			y.Zero()
			z.Zero()
			batch[0] = cmat.Triple{Out: y, A: m, B: li, Span: byM}
			batch[1] = cmat.Triple{Out: z, A: li, B: mh, Span: byM}
			cmat.BatchMulAddInto(batch[:2])
			gi := cmat.GetDenseNoZero(bs, bs)
			gi.CopyFrom(li)
			gi.AddInPlace(x[s])
			gi.AddInPlace(y)
			gi.AddInPlace(z)
			cmat.PutDense(li)
			g[s*n+i] = gi
		}
	}
	cmat.PutAll(t1, t2, h, ah, m, mh, y, z, x[0], x[1])
	return g
}

// DenseReference solves the same system by full dense inversion; used by
// validation tests and the naive ("Python") benchmark variant of Table 7.
func DenseReference(a *cmat.BlockTri, sigma []*cmat.Dense) (grDiag, gLessDiag []*cmat.Dense, err error) {
	ad := a.ToDense()
	gr, err := cmat.Inverse(ad)
	if err != nil {
		return nil, nil, err
	}
	bs := a.Bs
	sig := cmat.NewDense(ad.Rows, ad.Cols)
	for i, s := range sigma {
		if s != nil {
			sig.SetSubmatrix(i*bs, i*bs, s)
		}
	}
	gLess := gr.Mul(sig).Mul(gr.ConjTranspose())
	grDiag = make([]*cmat.Dense, a.N)
	gLessDiag = make([]*cmat.Dense, a.N)
	for i := 0; i < a.N; i++ {
		grDiag[i] = gr.Submatrix(i*bs, (i+1)*bs, i*bs, (i+1)*bs)
		gLessDiag[i] = gLess.Submatrix(i*bs, (i+1)*bs, i*bs, (i+1)*bs)
	}
	return grDiag, gLessDiag, nil
}
