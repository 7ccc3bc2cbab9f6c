package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
)

// Retarded holds the output of the retarded RGF pass: the diagonal blocks of
// G^R = A⁻¹ and the left-connected Green's functions gL needed by the lesser
// pass.
type Retarded struct {
	Diag []*cmat.Dense // G^R[n,n]
	gL   []*cmat.Dense // left-connected g^L[n]
	a    *cmat.BlockTri
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
	gl, err := forwardGL(a)
	if err != nil {
		return nil, err
	}
	r := &Retarded{gL: gl, a: a}
	r.sweep()
	return r, nil
}

// forwardGL runs only the forward recursion, returning the left-connected
// g^L blocks (all pooled). It is the first half of SolveRetarded, split out
// so the spatial solver can rebuild a full Retarded around an
// already-distributed diagonal.
func forwardGL(a *cmat.BlockTri) ([]*cmat.Dense, error) {
	n, bs := a.N, a.Bs
	gl := make([]*cmat.Dense, 0, n)
	g := cmat.GetDense(bs, bs)
	if err := cmat.InverseInto(g, a.Diag[0]); err != nil {
		cmat.PutDense(g)
		return nil, fmt.Errorf("rgf: forward block 0: %w", err)
	}
	gl = append(gl, g)
	t1 := cmat.GetDense(bs, bs)
	t2 := cmat.GetDense(bs, bs)
	for i := 1; i < n; i++ {
		a.Lower[i-1].MulInto(t1, gl[i-1])
		t1.MulInto(t2, a.Upper[i-1])
		t2.ScaleInPlace(-1)
		t2.AddInPlace(a.Diag[i])
		g = cmat.GetDense(bs, bs)
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
	for _, g := range r.gL {
		cmat.PutDense(g)
	}
	r.Diag, r.gL = nil, nil
}

// releaseGL returns only the left-connected helper blocks, keeping Diag
// alive — for callers that hand Diag onward as a result.
func (r *Retarded) releaseGL() {
	for _, g := range r.gL {
		cmat.PutDense(g)
	}
	r.gL = nil
}

// OffDiagLower returns G^R[n+1, n] = −G^R[n+1,n+1]·A[n+1,n]·gL[n], the
// sub-diagonal block of the retarded Green's function.
func (r *Retarded) OffDiagLower(n int) *cmat.Dense {
	return r.Diag[n+1].Mul(r.a.Lower[n]).Mul(r.gL[n]).Scale(-1)
}

// OffDiagUpper returns G^R[n, n+1] = −gL[n]·A[n,n+1]·G^R[n+1,n+1].
func (r *Retarded) OffDiagUpper(n int) *cmat.Dense {
	return r.gL[n].Mul(r.a.Upper[n]).Mul(r.Diag[n+1]).Scale(-1)
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
// bits are the same. It returns the sets' G^≷ diagonals one after the other.
func (r *Retarded) sweep(sets ...[]*cmat.Dense) []*cmat.Dense {
	a := r.a
	n, bs, k := a.N, a.Bs, len(sets)
	// g[s*n+i] is set s's left-connected g≷L[i] after the forward loop. The
	// backward walk replaces it by G≷[i] and returns it to the arena; G≷[n−1]
	// is g≷L[n−1] as it stands.
	g := make([]*cmat.Dense, k*n)
	t1, t2 := cmat.GetDense(bs, bs), cmat.GetDense(bs, bs)
	h, ah := cmat.GetDense(bs, bs), cmat.GetDense(bs, bs) // gL[i]^H, a coupling block's A^H
	for i := 0; i < n && k > 0; i++ {
		r.gL[i].ConjTransposeInto(h)
		if i > 0 {
			a.Lower[i-1].ConjTransposeInto(ah)
		}
		for s, sigma := range sets {
			inner := sigma[i]
			if i > 0 {
				// inner = Σ[i] + A[i,i−1]·g≷L[i−1]·A[i,i−1]^H
				a.Lower[i-1].MulInto(t1, g[s*n+i-1])
				t1.MulInto(t2, ah)
				t2.AddInPlace(sigma[i])
				inner = t2
			}
			r.gL[i].MulInto(t1, inner)
			g[s*n+i] = cmat.GetDense(bs, bs)
			t1.MulInto(g[s*n+i], h)
		}
	}

	retarded := r.Diag == nil
	if retarded { // Diag[n−1] copies gL[n−1] so Release returns each block once
		r.Diag = make([]*cmat.Dense, n)
		r.Diag[n-1] = cmat.GetDense(bs, bs)
		r.Diag[n-1].CopyFrom(r.gL[n-1])
	}
	u, p, m, mh := t1, t2, cmat.GetDense(bs, bs), cmat.GetDense(bs, bs)
	y, z := cmat.GetDense(bs, bs), cmat.GetDense(bs, bs)
	x := [2]*cmat.Dense{cmat.GetDense(bs, bs), cmat.GetDense(bs, bs)} // u·G≷[i+1] per set
	var batch [3]cmat.Triple
	for i := n - 2; i >= 0; i-- {
		gli := r.gL[i]
		// u's products against G^R[i+1] and every G≷[i+1] are independent:
		// one batch.
		gli.MulInto(u, a.Upper[i])
		p.Zero()
		batch[0] = cmat.Triple{Out: p, A: u, B: r.Diag[i+1]}
		for s := 0; s < k; s++ {
			x[s].Zero()
			batch[1+s] = cmat.Triple{Out: x[s], A: u, B: g[s*n+i+1]}
		}
		cmat.BatchMulAddInto(batch[:1+k])
		p.MulInto(m, a.Lower[i])
		if retarded {
			r.Diag[i] = cmat.GetDense(bs, bs)
			r.Diag[i].CopyFrom(gli)
			m.MulAddInto(r.Diag[i], gli)
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
			li := g[s*n+i]
			x[s].MulInto(y, ah)
			y.MulInto(x[s], h)
			y.Zero()
			z.Zero()
			batch[0] = cmat.Triple{Out: y, A: m, B: li}
			batch[1] = cmat.Triple{Out: z, A: li, B: mh}
			cmat.BatchMulAddInto(batch[:2])
			gi := cmat.GetDense(bs, bs)
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
