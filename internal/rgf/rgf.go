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
// All result and intermediate blocks come from the workspace arena; call
// Release (or keep the blocks and let the GC take them) when done.
func SolveRetarded(a *cmat.BlockTri) (*Retarded, error) {
	n, bs := a.N, a.Bs
	gl, err := forwardGL(a)
	if err != nil {
		return nil, err
	}
	r := &Retarded{Diag: make([]*cmat.Dense, n), gL: gl, a: a}
	t1 := cmat.GetDense(bs, bs)
	t2 := cmat.GetDense(bs, bs)
	// Diag[n−1] is a pooled copy (not an alias of gL[n−1]) so Release can
	// blanket-return every block exactly once.
	last := cmat.GetDense(bs, bs)
	last.CopyFrom(r.gL[n-1])
	r.Diag[n-1] = last
	for i := n - 2; i >= 0; i-- {
		r.gL[i].MulInto(t1, a.Upper[i])
		t1.MulInto(t2, r.Diag[i+1])
		t2.MulInto(t1, a.Lower[i])
		d := cmat.GetDense(bs, bs)
		d.CopyFrom(r.gL[i])
		t1.MulAddInto(d, r.gL[i])
		r.Diag[i] = d
	}
	cmat.PutAll(t1, t2)
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

// SolveKeldysh computes the diagonal blocks of G^≷ = G^R·Σ^≷·G^A for a
// block-diagonal Σ^≷ (per-RGF-block matrices; contact Σ^≷ is folded into the
// corner blocks by the caller). The recursion is
//
//	g<L[0] = gL[0]·Σ[0]·gL[0]^H
//	g<L[n] = gL[n]·(Σ[n] + A[n,n−1]·g<L[n−1]·A[n,n−1]^H)·gL[n]^H
//	G<[N−1] = g<L[N−1]
//	G<[n] = g<L[n] + gL[n]·A[n,n+1]·G<[n+1]·A[n,n+1]^H·gL[n]^H
//	        + M·g<L[n] + g<L[n]·M^H,   M = gL[n]·A[n,n+1]·G^R[n+1]·A[n+1,n]
func (r *Retarded) SolveKeldysh(sigma []*cmat.Dense) []*cmat.Dense {
	n := r.a.N
	if len(sigma) != n {
		panic(fmt.Sprintf("rgf: SolveKeldysh got %d self-energy blocks for %d RGF blocks", len(sigma), n))
	}
	a := r.a
	bs := a.Bs
	gLess := make([]*cmat.Dense, n)
	lLess := make([]*cmat.Dense, n)
	t1 := cmat.GetDense(bs, bs)
	t2 := cmat.GetDense(bs, bs)
	t3 := cmat.GetDense(bs, bs)
	h := cmat.GetDense(bs, bs) // conjugate-transpose scratch
	r.gL[0].MulInto(t1, sigma[0])
	r.gL[0].ConjTransposeInto(h)
	l0 := cmat.GetDense(bs, bs)
	t1.MulInto(l0, h)
	lLess[0] = l0
	for i := 1; i < n; i++ {
		// inner = Σ[i] + A[i,i−1]·l<[i−1]·A[i,i−1]^H
		a.Lower[i-1].MulInto(t1, lLess[i-1])
		a.Lower[i-1].ConjTransposeInto(h)
		t1.MulInto(t2, h)
		t2.AddInPlace(sigma[i])
		r.gL[i].MulInto(t1, t2)
		r.gL[i].ConjTransposeInto(h)
		li := cmat.GetDense(bs, bs)
		t1.MulInto(li, h)
		lLess[i] = li
	}
	// gLess[n−1] is a pooled copy, so the lLess blocks can be returned
	// wholesale below without aliasing the result.
	gN := cmat.GetDense(bs, bs)
	gN.CopyFrom(lLess[n-1])
	gLess[n-1] = gN
	u := cmat.GetDense(bs, bs)
	p1 := cmat.GetDense(bs, bs)
	p2 := cmat.GetDense(bs, bs)
	m := cmat.GetDense(bs, bs)
	var batch [2]cmat.Triple
	for i := n - 2; i >= 0; i-- {
		gli := r.gL[i]
		gli.ConjTransposeInto(h)
		// u = gL[i]·A[i,i+1]; the two products against G<[i+1] and G^R[i+1]
		// share u and are independent — one batched dispatch.
		gli.MulInto(u, a.Upper[i])
		p1.Zero()
		p2.Zero()
		batch[0] = cmat.Triple{Out: p1, A: u, B: gLess[i+1]}
		batch[1] = cmat.Triple{Out: p2, A: u, B: r.Diag[i+1]}
		cmat.BatchMulAddInto(batch[:])
		// t1 = p1·A[i,i+1]^H·gL[i]^H
		a.Upper[i].ConjTransposeInto(t3)
		p1.MulInto(t2, t3)
		t2.MulInto(t1, h)
		// m = p2·A[i+1,i]
		p2.MulInto(m, a.Lower[i])
		// g = l<[i] + t1 + m·l<[i] + l<[i]·m^H; the two correction products
		// write disjoint accumulators, so batch them too.
		g := cmat.GetDense(bs, bs)
		g.CopyFrom(lLess[i])
		g.AddInPlace(t1)
		t2.Zero()
		t3.Zero()
		batch[0] = cmat.Triple{Out: t2, A: m, B: lLess[i]}
		m.ConjTransposeInto(h)
		batch[1] = cmat.Triple{Out: t3, A: lLess[i], B: h}
		cmat.BatchMulAddInto(batch[:])
		g.AddInPlace(t2)
		g.AddInPlace(t3)
		gLess[i] = g
	}
	cmat.PutAll(t1, t2, t3, h, u, p1, p2, m)
	cmat.PutAll(lLess...)
	return gLess
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
