package rgf

import (
	"fmt"
	"slices"
	"sync"

	"negfsim/internal/cmat"
)

// Spatial domain decomposition of the retarded solve — the third level of
// OMEN's momentum/energy/space MPI hierarchy (§2.1). The block-tridiagonal
// chain is split at separator blocks into independent segments:
//
//  1. every segment eliminates its interior in parallel (the sequential
//     solver on the segment, plus one reversed forward pass where it has a
//     right separator), producing its Schur-complement contribution to the
//     separators;
//  2. the reduced block-tridiagonal system over the separators is solved
//     with the ordinary RGF;
//  3. every segment recovers its interior diagonal Green's function blocks
//     in parallel from the separator solution via the block-inversion
//     identity G_II = M + M·A_IS·G_SS·A_SI·M, with the border strips of
//     M = A_II⁻¹ obtained from running product recursions.
//
// The result is exactly SolveRetarded's diagonal (tested against it and
// against dense inversion); the parallelism is over segments. The same
// three phases, with the per-segment work mapped onto cluster ranks and the
// reduced system carried over the wire, are the distributed solver in
// distributed.go.

// segment k holds one interior run of blocks [lo, hi] (inclusive) between
// separators seps[k−1] and seps[k]; sepL/sepR are those separator block
// indices, or −1 at the chain's ends. A segment builds only the border
// strips its separators read: the first column and row with a left
// separator, the last ones with a right separator. M[0,0] and M[m−1,m−1]
// are the diagonal's own blocks.
type segment struct {
	k          int
	lo, hi     int
	sepL, sepR int

	diag              []*cmat.Dense // M[i,i]
	colFirst, colLast []*cmat.Dense // M[i,0], M[i,m−1]
	rowFirst, rowLast []*cmat.Dense // M[0,i], M[m−1,i]
}

// localInverse eliminates the segment's interior, filling the diagonal of
// M = B⁻¹ for the segment's own blocks B and the border strips its
// separators need. It is the sequential solver on a zero-copy view of the
// segment — M's diagonal and the left-connected gL are SolveRetarded's — and,
// with a right separator, one forward pass over the reversed view (Diag
// reversed, Upper and Lower swapped), whose left-connected blocks are the
// right-connected gR[i] = (B[i,i] − B[i,i+1]·gR[i+1]·B[i+1,i])⁻¹. On the
// reversed chain the last column and row are the first ones, so both sides
// run borderStrips. It returns gL, pooled, for the caller to release or
// hand on.
func (sg *segment) localInverse(a *cmat.BlockTri) ([]*cmat.Dense, error) {
	m := sg.hi - sg.lo + 1
	view := &cmat.BlockTri{N: m, Bs: a.Bs,
		Diag: a.Diag[sg.lo : sg.hi+1], Upper: a.Upper[sg.lo:sg.hi], Lower: a.Lower[sg.lo:sg.hi]}
	ret, err := SolveRetarded(view)
	if err != nil {
		return nil, fmt.Errorf("rgf: segment [%d,%d]: %w", sg.lo, sg.hi, err)
	}
	sg.diag = ret.Diag
	gL := ret.gL
	if sg.sepL >= 0 {
		sg.colFirst, sg.rowFirst = borderStrips(view, ret.sup, gL, sg.diag)
	}
	ret.sup.release()
	if sg.sepR < 0 {
		return gL, nil
	}
	rev := &cmat.BlockTri{N: m, Bs: a.Bs,
		Diag: slices.Clone(view.Diag), Upper: slices.Clone(view.Lower), Lower: slices.Clone(view.Upper)}
	slices.Reverse(rev.Diag)
	slices.Reverse(rev.Upper)
	slices.Reverse(rev.Lower)
	revSup := couplingsOf(rev)
	defer revSup.release()
	gR, err := forwardGL(rev, revSup, nil)
	if err != nil {
		cmat.PutAll(gL...)
		return nil, fmt.Errorf("rgf: segment [%d,%d] reversed: %w", sg.lo, sg.hi, err)
	}
	// The diagonal is reversed for the pass and restored after it; the
	// strips come out in reversed order.
	slices.Reverse(sg.diag)
	sg.colLast, sg.rowLast = borderStrips(rev, revSup, gR, sg.diag)
	slices.Reverse(sg.diag)
	slices.Reverse(sg.colLast)
	slices.Reverse(sg.rowLast)
	cmat.PutAll(gR...)
	return gL, nil
}

// borderStrips returns the first column M[i,0] and the first row M[0,i] of
// M = a⁻¹ from M's diagonal and a's left-connected blocks gL, by running
// products from R_0 = L_0 = I:
//
//	M[i,0] = M[i,i]·R_i,  R_i = (−A[i,i−1]·gL[i−1])·R_{i−1}
//	M[0,i] = L_i·M[i,i],  L_i = L_{i−1}·(−gL[i−1]·A[i−1,i])
//
// so M[0,0] is diag[0] itself and R_1, L_1 are the first factors. R_i has
// A[i,i−1]'s rows and L_i A[i−1,i]'s columns, so every product with a
// coupling, R or L runs over the supports sup. The other strip blocks come
// from the arena.
func borderStrips(a *cmat.BlockTri, sup *couplings, gL, diag []*cmat.Dense) (col, row []*cmat.Dense) {
	m, bs := a.N, a.Bs
	col, row = make([]*cmat.Dense, m), make([]*cmat.Dense, m)
	col[0], row[0] = diag[0], diag[0]
	r, l := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	t, next := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	for i := 1; i < m; i++ {
		lo, up := sup.lower[i-1], sup.upper[i-1]
		a.Lower[i-1].MulSpanInto(t, gL[i-1], cmat.Span{Rows: lo.Rows, Inner: lo.Cols})
		t.ScaleInPlace(-1)
		if i == 1 {
			r, t = t, r
		} else {
			t.MulSpanInto(next, r, cmat.Span{Rows: lo.Rows, Inner: sup.lower[i-2].Rows})
			r, next = next, r
		}
		gL[i-1].MulSpanInto(t, a.Upper[i-1], cmat.Span{Inner: up.Rows, Cols: up.Cols})
		t.ScaleInPlace(-1)
		if i == 1 {
			l, t = t, l
		} else {
			l.MulSpanInto(next, t, cmat.Span{Inner: sup.upper[i-2].Cols, Cols: up.Cols})
			l, next = next, l
		}
		col[i], row[i] = cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
		diag[i].MulSpanInto(col[i], r, cmat.Span{Inner: lo.Rows})
		l.MulSpanInto(row[i], diag[i], cmat.Span{Inner: up.Cols})
	}
	cmat.PutAll(r, l, t, next)
	return col, row
}

// edge is the coupling between a segment's end block e and one of its
// separators s: to = A[e,s] and from = A[s,e], with their supports.
type edge struct {
	to, from   *cmat.Dense
	sTo, sFrom cmat.Support
}

// edges returns the segment's edges to its left separator (from its first
// block) and to its right one (from its last block); a side without a
// separator gets the zero edge.
func (sg *segment) edges(a *cmat.BlockTri) (l, r edge) {
	if sg.sepL >= 0 {
		l = edge{to: a.Lower[sg.sepL], from: a.Upper[sg.sepL]}
		l.sTo, l.sFrom = supportOf(l.to), supportOf(l.from)
	}
	if sg.sepR >= 0 {
		r = edge{to: a.Upper[sg.sepR-1], from: a.Lower[sg.sepR-1]}
		r.sTo, r.sFrom = supportOf(r.to), supportOf(r.from)
	}
	return l, r
}

// slots reports which of the four Schur-contribution slots [toL, toR, up, lo]
// the segment fills. They follow from its separators alone, which is why the
// distributed solver's wire format needs no headers.
func (sg *segment) slots() [4]bool {
	l, r := sg.sepL >= 0, sg.sepR >= 0
	return [4]bool{l, r, l && r, l && r}
}

// schurContribution computes the segment's additions to the reduced system
// in slot order, into arena blocks: toL/toR fold into the diagonal of the
// left/right separator, up/lo are the couplings between them through this
// interior. Slots the segment does not fill are nil.
func (sg *segment) schurContribution(a *cmat.BlockTri) (c [4]*cmat.Dense) {
	m := sg.hi - sg.lo + 1
	has := sg.slots()
	l, r := sg.edges(a)
	// sandwich is x.from·d·y.to, each product over the couplings' supports.
	sandwich := func(x edge, d *cmat.Dense, y edge) *cmat.Dense {
		t, out := cmat.GetDenseNoZero(a.Bs, a.Bs), cmat.GetDenseNoZero(a.Bs, a.Bs)
		x.from.MulSpanInto(t, d, cmat.Span{Rows: x.sFrom.Rows, Inner: x.sFrom.Cols})
		t.MulSpanInto(out, y.to, cmat.Span{Rows: x.sFrom.Rows, Inner: y.sTo.Rows, Cols: y.sTo.Cols})
		cmat.PutDense(t)
		return out
	}
	if has[0] {
		c[0] = sandwich(l, sg.diag[0], l)
	}
	if has[1] {
		c[1] = sandwich(r, sg.diag[m-1], r)
	}
	if has[2] {
		// S[L,R] = −A[L,first]·M[first,last]·A[last,R] and the mirrored
		// S[R,L] through the same segment.
		c[2] = sandwich(l, sg.colLast[0], r)
		c[2].ScaleInPlace(-1)
		c[3] = sandwich(r, sg.colFirst[m-1], l)
		c[3].ScaleInPlace(-1)
	}
	return c
}

// assembleReduced builds the Schur complement over the separators from the
// segments' contributions (contribs[k] belongs to segment k): S[s,s] = A[s,s]
// minus the contributions of the segments on either side, and S[s,s']
// between neighboring separators through the segment between them. It
// consumes the contributions: the diagonal ones go back to the arena, the
// couplings become the reduced system's blocks.
func assembleReduced(a *cmat.BlockTri, seps []int, contribs [][4]*cmat.Dense) *cmat.BlockTri {
	k := len(seps)
	red := &cmat.BlockTri{N: k, Bs: a.Bs,
		Diag: make([]*cmat.Dense, k), Upper: make([]*cmat.Dense, k-1), Lower: make([]*cmat.Dense, k-1)}
	for j, s := range seps {
		red.Diag[j] = cmat.GetDenseNoZero(a.Bs, a.Bs)
		red.Diag[j].CopyFrom(a.Diag[s])
	}
	// Segments run left to right, so each separator loses its left
	// neighbor's toR before its right neighbor's toL.
	for i, c := range contribs {
		if c[0] != nil {
			red.Diag[i-1].SubInPlace(c[0])
		}
		if c[1] != nil {
			red.Diag[i].SubInPlace(c[1])
		}
		if c[2] != nil {
			red.Upper[i-1], red.Lower[i-1] = c[2], c[3]
		}
		cmat.PutAll(c[0], c[1])
	}
	return red
}

// evenSeps returns the even-spread separator placement splitting n blocks
// into `segments` segments — the layout PartitionedRetarded and the
// distributed solver share. Requires n ≥ 2·segments−1, under which no two
// separators are adjacent and none sits at a chain end, so every segment is
// non-empty.
func evenSeps(n, segments int) []int {
	seps := make([]int, segments-1)
	for j := range seps {
		seps[j] = (j + 1) * n / segments
	}
	return seps
}

// buildSegments slices [0, n) into the len(seps)+1 interior segments
// delimited by evenSeps' separators: segment k runs between seps[k−1] and
// seps[k], the first from block 0 and the last to block n−1.
func buildSegments(n int, seps []int) []*segment {
	segs := make([]*segment, len(seps)+1)
	for k := range segs {
		sg := &segment{k: k, lo: 0, hi: n - 1, sepL: -1, sepR: -1}
		if k > 0 {
			sg.sepL = seps[k-1]
			sg.lo = sg.sepL + 1
		}
		if k < len(seps) {
			sg.sepR = seps[k]
			sg.hi = sg.sepR - 1
		}
		segs[k] = sg
	}
	return segs
}

// sepSolution is the solved reduced separator system in the form the
// interior recovery needs: the separator diagonal blocks plus the
// off-diagonal blocks between adjacent separators. The single-process solver
// and the distributed root fill it from solveReduced; the other ranks unpack
// it from the root's broadcast.
type sepSolution struct {
	diag []*cmat.Dense // G[s_j, s_j]
	up   []*cmat.Dense // G[s_j, s_{j+1}]
	lo   []*cmat.Dense // G[s_{j+1}, s_j]
}

// solveReduced assembles the reduced separator system from contribs, which
// it consumes, and solves it with the sequential recursion.
func solveReduced(a *cmat.BlockTri, seps []int, contribs [][4]*cmat.Dense) (*sepSolution, error) {
	red := assembleReduced(a, seps, contribs)
	defer cmat.PutBlockTri(red)
	ret, err := SolveRetarded(red)
	if err != nil {
		return nil, fmt.Errorf("rgf: reduced separator system: %w", err)
	}
	k := len(seps)
	sol := &sepSolution{diag: ret.Diag, up: make([]*cmat.Dense, k-1), lo: make([]*cmat.Dense, k-1)}
	for j := 0; j < k-1; j++ {
		sol.up[j] = ret.OffDiagUpper(j)
		sol.lo[j] = ret.OffDiagLower(j)
	}
	ret.releaseGL()
	return sol, nil
}

// recoverDiag places the separator solution into a fresh n-block diagonal
// and recovers the interiors of segs into it on up to workers goroutines.
// The segments' own M diagonals become the interior blocks in place, and the
// separator couplings of sol go back to the arena.
func recoverDiag(a *cmat.BlockTri, seps []int, sol *sepSolution, segs []*segment, workers int) []*cmat.Dense {
	out := make([]*cmat.Dense, a.N)
	for j, s := range seps {
		out[s] = sol.diag[j]
	}
	eachSegment(len(segs), workers, func(k int) error {
		segs[k].recover(a, sol, out)
		return nil
	})
	cmat.PutAll(sol.up...)
	cmat.PutAll(sol.lo...)
	return out
}

// eachSegment runs f(0..n−1) on up to workers goroutines and returns the
// first error in index order.
func eachSegment(n, workers int, f func(k int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[k] = f(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// retardedDiag is the sequential solve's diagonal alone, the degenerate
// one-segment case of both spatial solvers.
func retardedDiag(a *cmat.BlockTri) ([]*cmat.Dense, error) {
	ret, err := SolveRetarded(a)
	if err != nil {
		return nil, err
	}
	ret.releaseGL()
	return ret.Diag, nil
}

// PartitionedRetarded computes the diagonal blocks of A⁻¹ by the
// Schur-complement domain decomposition described above, with `segments`
// independent segments processed by up to `workers` goroutines and the
// separators spread evenly (evenSeps). With segments ≤ 1 it falls back to
// the sequential recursion. The blocks come from the workspace arena.
func PartitionedRetarded(a *cmat.BlockTri, segments, workers int) ([]*cmat.Dense, error) {
	n := a.N
	if segments <= 1 {
		return retardedDiag(a)
	}
	// segments segments need segments−1 separators and at least one block
	// per segment: N ≥ 2·segments − 1.
	if n < 2*segments-1 {
		return nil, fmt.Errorf("rgf: %d blocks cannot form %d segments", n, segments)
	}
	if workers < 1 {
		workers = 1
	}
	seps := evenSeps(n, segments)
	segs := buildSegments(n, seps)

	// Phase 1: parallel interior elimination and Schur contributions.
	contribs := make([][4]*cmat.Dense, len(segs))
	if err := eachSegment(len(segs), workers, func(k int) error {
		gL, err := segs[k].localInverse(a)
		if err != nil {
			return err
		}
		cmat.PutAll(gL...)
		contribs[k] = segs[k].schurContribution(a)
		return nil
	}); err != nil {
		return nil, err
	}
	// Phase 2: the reduced system; phase 3: parallel interior recovery.
	sol, err := solveReduced(a, seps, contribs)
	if err != nil {
		return nil, err
	}
	return recoverDiag(a, seps, sol, segs, workers), nil
}

// recover applies G_II = M + M·A_IS·G_SS·A_SI·M for one segment, writing the
// interior blocks into out, and returns the border strips, whose last
// reader it is, to the arena. Per block i the factors are
// u_L = M[i,0]·A[first,L], u_R = M[i,m−1]·A[last,R], v_L = A[L,first]·M[0,i]
// and v_R = A[R,last]·M[m−1,i], and G[i,i] gains u_S·G[S,S']·v_S' for every
// pair of the segment's separators S, S'. u inherits its edge's columns and v
// its rows, so every product runs over the edges' supports. All four
// factors are formed before G[i,i] changes, since a strip's end block is
// M[i,i] itself.
func (sg *segment) recover(a *cmat.BlockTri, sol *sepSolution, out []*cmat.Dense) {
	m, bs := sg.hi-sg.lo+1, a.Bs
	hasL, hasR := sg.sepL >= 0, sg.sepR >= 0
	l, r := sg.edges(a)
	uL, vL := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	uR, vR := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	t, p := cmat.GetDenseNoZero(bs, bs), cmat.GetDenseNoZero(bs, bs)
	for i := 0; i < m; i++ {
		g := sg.diag[i]
		// add is g += (u·gs)·v, u of edge eu and v of edge ev.
		add := func(u *cmat.Dense, eu edge, gs, v *cmat.Dense, ev edge) {
			u.MulSpanInto(t, gs, cmat.Span{Inner: eu.sTo.Cols})
			t.MulSpanInto(p, v, cmat.Span{Inner: ev.sFrom.Rows})
			g.AddInPlace(p)
		}
		if hasL {
			sg.colFirst[i].MulSpanInto(uL, l.to, cmat.Span{Inner: l.sTo.Rows, Cols: l.sTo.Cols})
			l.from.MulSpanInto(vL, sg.rowFirst[i], cmat.Span{Rows: l.sFrom.Rows, Inner: l.sFrom.Cols})
		}
		if hasR {
			sg.colLast[i].MulSpanInto(uR, r.to, cmat.Span{Inner: r.sTo.Rows, Cols: r.sTo.Cols})
			r.from.MulSpanInto(vR, sg.rowLast[i], cmat.Span{Rows: r.sFrom.Rows, Inner: r.sFrom.Cols})
		}
		if hasL {
			add(uL, l, sol.diag[sg.k-1], vL, l) // G[L,L]
		}
		if hasR {
			add(uR, r, sol.diag[sg.k], vR, r) // G[R,R]
		}
		if hasL && hasR {
			add(uL, l, sol.up[sg.k-1], vR, r) // G[L,R]
			add(uR, r, sol.lo[sg.k-1], vL, l) // G[R,L]
		}
		out[sg.lo+i] = g
	}
	cmat.PutAll(uL, vL, uR, vR, t, p)
	for _, strip := range [][]*cmat.Dense{sg.colFirst, sg.rowFirst, sg.colLast, sg.rowLast} {
		for i, b := range strip {
			if b != sg.diag[i] {
				cmat.PutDense(b)
			}
		}
	}
	sg.colFirst, sg.rowFirst, sg.colLast, sg.rowLast = nil, nil, nil, nil
}
