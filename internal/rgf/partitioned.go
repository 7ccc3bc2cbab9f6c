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
//     solver on the segment, plus one reversed forward pass), producing its
//     Schur-complement contribution to the separators;
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
// indices, or −1 at the chain's ends.
type segment struct {
	k          int
	lo, hi     int
	sepL, sepR int

	diag              []*cmat.Dense // M[i,i]
	colFirst, colLast []*cmat.Dense // M[i,0], M[i,m−1]
	rowFirst, rowLast []*cmat.Dense // M[0,i], M[m−1,i]
}

// localInverse eliminates the segment's interior, filling the diagonal and
// border strips of M = B⁻¹ for the segment's own blocks B. It is the
// sequential solver on a zero-copy view of the segment — M's diagonal and the
// left-connected gL are SolveRetarded's — plus one forward pass over the
// reversed view (Diag reversed, Upper and Lower swapped), whose left-connected
// blocks are the right-connected gR[i] = (B[i,i] − B[i,i+1]·gR[i+1]·B[i+1,i])⁻¹.
func (sg *segment) localInverse(a *cmat.BlockTri) error {
	m := sg.hi - sg.lo + 1
	view := &cmat.BlockTri{N: m, Bs: a.Bs,
		Diag: a.Diag[sg.lo : sg.hi+1], Upper: a.Upper[sg.lo:sg.hi], Lower: a.Lower[sg.lo:sg.hi]}
	ret, err := SolveRetarded(view)
	if err != nil {
		return fmt.Errorf("rgf: segment [%d,%d]: %w", sg.lo, sg.hi, err)
	}
	defer ret.releaseGL()
	rev := &cmat.BlockTri{N: m, Bs: a.Bs,
		Diag: slices.Clone(view.Diag), Upper: slices.Clone(view.Lower), Lower: slices.Clone(view.Upper)}
	slices.Reverse(rev.Diag)
	slices.Reverse(rev.Upper)
	slices.Reverse(rev.Lower)
	revSup := couplingsOf(rev)
	gR, err := forwardGL(rev, revSup)
	revSup.release()
	if err != nil {
		ret.Release()
		return fmt.Errorf("rgf: segment [%d,%d] reversed: %w", sg.lo, sg.hi, err)
	}
	defer cmat.PutAll(gR...)
	slices.Reverse(gR)
	sg.diag = ret.Diag
	gL, up, lo := ret.gL, view.Upper, view.Lower

	// Border strips by running products:
	//   M[i,0]   = M[i,i]·R_i,  R_i = (−A[i,i−1]·gL[i−1])·R_{i−1}
	//   M[0,i]   = L_i·M[i,i],  L_i = L_{i−1}·(−gL[i−1]·A[i−1,i])
	//   M[i,m−1] = M[i,i]·Q_i,  Q_i = (−A[i,i+1]·gR[i+1])·Q_{i+1}
	//   M[m−1,i] = K_i·M[i,i],  K_i = K_{i+1}·(−gR[i+1]·A[i+1,i])
	bs := a.Bs
	sg.colFirst = make([]*cmat.Dense, m)
	sg.rowFirst = make([]*cmat.Dense, m)
	sg.colLast = make([]*cmat.Dense, m)
	sg.rowLast = make([]*cmat.Dense, m)
	r := cmat.Identity(bs)
	l := cmat.Identity(bs)
	for i := 0; i < m; i++ {
		if i > 0 {
			r = lo[i-1].Mul(gL[i-1]).Scale(-1).Mul(r)
			l = l.Mul(gL[i-1].Mul(up[i-1]).Scale(-1))
		}
		sg.colFirst[i] = sg.diag[i].Mul(r)
		sg.rowFirst[i] = l.Mul(sg.diag[i])
	}
	q := cmat.Identity(bs)
	k := cmat.Identity(bs)
	for i := m - 1; i >= 0; i-- {
		if i < m-1 {
			q = up[i].Mul(gR[i+1]).Scale(-1).Mul(q)
			k = k.Mul(gR[i+1].Mul(lo[i]).Scale(-1))
		}
		sg.colLast[i] = sg.diag[i].Mul(q)
		sg.rowLast[i] = k.Mul(sg.diag[i])
	}
	return nil
}

// slots reports which of the four Schur-contribution slots [toL, toR, up, lo]
// the segment fills. They follow from its separators alone, which is why the
// distributed solver's wire format needs no headers.
func (sg *segment) slots() [4]bool {
	l, r := sg.sepL >= 0, sg.sepR >= 0
	return [4]bool{l, r, l && r, l && r}
}

// schurContribution computes the segment's additions to the reduced system
// in slot order: toL/toR fold into the diagonal of the left/right separator,
// up/lo are the couplings between them through this interior. Slots the
// segment does not fill are nil.
func (sg *segment) schurContribution(a *cmat.BlockTri) (c [4]*cmat.Dense) {
	m := sg.hi - sg.lo + 1
	has := sg.slots()
	if has[0] {
		c[0] = a.Upper[sg.sepL].Mul(sg.diag[0]).Mul(a.Lower[sg.sepL])
	}
	if has[1] {
		c[1] = a.Lower[sg.sepR-1].Mul(sg.diag[m-1]).Mul(a.Upper[sg.sepR-1])
	}
	if has[2] {
		// S[L,R] = −A[L,first]·M[first,last]·A[last,R] and the mirrored
		// S[R,L] through the same segment.
		c[2] = a.Upper[sg.sepL].Mul(sg.colLast[0]).Mul(a.Upper[sg.sepR-1]).Scale(-1)
		c[3] = a.Lower[sg.sepR-1].Mul(sg.colFirst[m-1]).Mul(a.Lower[sg.sepL]).Scale(-1)
	}
	return c
}

// assembleReduced builds the Schur complement over the separators from the
// segments' contributions (contribs[k] belongs to segment k): S[s,s] = A[s,s]
// minus the contributions of the segments on either side, and S[s,s']
// between neighboring separators through the segment between them.
func assembleReduced(a *cmat.BlockTri, seps []int, contribs [][4]*cmat.Dense) *cmat.BlockTri {
	k := len(seps)
	red := &cmat.BlockTri{N: k, Bs: a.Bs,
		Diag: make([]*cmat.Dense, k), Upper: make([]*cmat.Dense, k-1), Lower: make([]*cmat.Dense, k-1)}
	for j, s := range seps {
		red.Diag[j] = a.Diag[s].Clone()
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

// solveReduced assembles the reduced separator system and solves it with the
// sequential recursion.
func solveReduced(a *cmat.BlockTri, seps []int, contribs [][4]*cmat.Dense) (*sepSolution, error) {
	ret, err := SolveRetarded(assembleReduced(a, seps, contribs))
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
// The segments' own M diagonals become the interior blocks in place.
func recoverDiag(a *cmat.BlockTri, seps []int, sol *sepSolution, segs []*segment, workers int) []*cmat.Dense {
	out := make([]*cmat.Dense, a.N)
	for j, s := range seps {
		out[s] = sol.diag[j]
	}
	eachSegment(len(segs), workers, func(k int) error {
		segs[k].recover(a, sol, out)
		return nil
	})
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
// the sequential recursion.
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
		if err := segs[k].localInverse(a); err != nil {
			return err
		}
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
// interior blocks into out.
func (sg *segment) recover(a *cmat.BlockTri, sol *sepSolution, out []*cmat.Dense) {
	m := sg.hi - sg.lo + 1
	hasL := sg.sepL >= 0
	hasR := sg.sepR >= 0
	// Couplings: A[first, L] = Lower[L], A[L, first] = Upper[L];
	//            A[last, R] = Upper[R−1], A[R, last] = Lower[R−1].
	var yl, xl, xr, yr *cmat.Dense
	if hasL {
		yl = a.Lower[sg.sepL] // A[first, L]
		xl = a.Upper[sg.sepL] // A[L, first]
	}
	if hasR {
		xr = a.Upper[sg.sepR-1] // A[last, R]
		yr = a.Lower[sg.sepR-1] // A[R, last]
	}
	// Separator Green's function blocks.
	var gLL, gRR, gLR, gRL *cmat.Dense
	if hasL {
		gLL = sol.diag[sg.k-1]
	}
	if hasR {
		gRR = sol.diag[sg.k]
	}
	if hasL && hasR {
		gLR = sol.up[sg.k-1] // G[L, R]
		gRL = sol.lo[sg.k-1] // G[R, L]
	}
	for i := 0; i < m; i++ {
		g := sg.diag[i]
		// Left factor pieces: u_L = M[i,0]·A[first,L], u_R = M[i,m−1]·A[last,R];
		// right pieces: v_L = A[L,first]·M[0,i], v_R = A[R,last]·M[m−1,i].
		var uL, uR, vL, vR *cmat.Dense
		if hasL {
			uL = sg.colFirst[i].Mul(yl)
			vL = xl.Mul(sg.rowFirst[i])
		}
		if hasR {
			uR = sg.colLast[i].Mul(xr)
			vR = yr.Mul(sg.rowLast[i])
		}
		if hasL {
			g.AddInPlace(uL.Mul(gLL).Mul(vL))
		}
		if hasR {
			g.AddInPlace(uR.Mul(gRR).Mul(vR))
		}
		if hasL && hasR {
			g.AddInPlace(uL.Mul(gLR).Mul(vR))
			g.AddInPlace(uR.Mul(gRL).Mul(vL))
		}
		out[sg.lo+i] = g
	}
}
