package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
)

// Distributed device-partitioned RGF — the spatial level of OMEN's
// momentum/energy/space MPI hierarchy, run over a comm.Cluster. The three
// phases of PartitionedRetarded map onto ranks:
//
//	rank k owns segment k of the even-spread layout (evenSeps);
//	phase 1 (interior elimination) is local;
//	phase 2 gathers every segment's Schur-complement separator
//	  contributions at rank 0, which solves the reduced (P−1)-separator
//	  system and broadcasts the packed solution;
//	phase 3 (interior recovery) is local again, followed by an allgather
//	  of the interior diagonal blocks so every rank holds the full
//	  replicated diagonal.
//
// Counted wire traffic is exactly
//
//	16·bs²·[(4P−7) + (P−1)(3P−5) + (P−1)(n−P+1)]
//
// bytes per solve for P ≥ 2 ranks and n blocks: 4P−7 gathered contribution
// blocks (rank 0's own is local), (P−1) copies of the 3P−5 packed separator
// solution blocks, and (P−1) copies of the n−(P−1) interior blocks. The
// perfmodel spatial-split volume model mirrors this formula and the comm
// conformance suite pins the two against each other on both transports.

// DistributedRetarded computes the diagonal blocks of A⁻¹ across the ranks
// of a cluster, each rank eliminating its own contiguous run of device
// blocks. Every rank must pass an identical operator A; every rank returns
// the full replicated diagonal. A cluster of size 1 degenerates to the
// sequential solve. Requires A.N ≥ 2·Size−1 so every rank owns at least one
// interior block.
func DistributedRetarded(r *comm.Rank, a *cmat.BlockTri) ([]*cmat.Dense, error) {
	p := r.Size()
	n, bs := a.N, a.Bs
	if p <= 1 {
		return retardedDiag(a)
	}
	if n < 2*p-1 {
		return nil, fmt.Errorf("rgf: %d blocks cannot be partitioned across %d ranks", n, p)
	}
	seps := evenSeps(n, p)
	segs := buildSegments(n, seps)
	sg := segs[r.ID]

	// Phase 1: eliminate the local interior.
	if err := sg.localInverse(a); err != nil {
		return nil, err
	}

	// Phase 2a: gather Schur-complement contributions at rank 0. Segment k
	// sends the slots it fills, concatenated; rank 0 knows which from the
	// segment layout alone, so the wire format needs no headers.
	own := sg.schurContribution(a)
	if r.ID == 0 {
		contribs := make([][4]*cmat.Dense, p)
		contribs[0] = own
		for k := 1; k < p; k++ {
			buf, err := r.Recv(k)
			if err != nil {
				return nil, fmt.Errorf("rgf: gathering separator contributions from rank %d: %w", k, err)
			}
			has := segs[k].slots()
			want := 0
			for _, ok := range has {
				if ok {
					want++
				}
			}
			if len(buf) != want*bs*bs {
				return nil, fmt.Errorf("rgf: rank %d sent %d values, want %d contribution blocks", k, len(buf), want)
			}
			for slot, ok := range has {
				if ok {
					contribs[k][slot] = cmat.DenseFromSlice(bs, bs, buf[:bs*bs])
					buf = buf[bs*bs:]
				}
			}
		}
		sol, err := solveReduced(a, seps, contribs)
		if err != nil {
			return nil, err
		}
		if _, err := r.Bcast(0, packSolution(sol, bs)); err != nil {
			return nil, fmt.Errorf("rgf: broadcasting separator solution: %w", err)
		}
		return finishDistributed(r, a, seps, segs, sg, sol)
	}
	buf := make([]complex128, 0, 4*bs*bs)
	for _, b := range own {
		if b != nil {
			buf = append(buf, b.Data...)
		}
	}
	if err := r.Send(0, buf); err != nil {
		return nil, fmt.Errorf("rgf: sending separator contributions: %w", err)
	}
	// Phase 2b: receive the packed separator solution.
	wire, err := r.Bcast(0, nil)
	if err != nil {
		return nil, fmt.Errorf("rgf: receiving separator solution: %w", err)
	}
	sol, err := unpackSolution(wire, len(seps), bs)
	if err != nil {
		return nil, err
	}
	return finishDistributed(r, a, seps, segs, sg, sol)
}

// packSolution flattens the separator solution as k diag blocks, then k−1
// upper and k−1 lower off-diagonal blocks.
func packSolution(sol *sepSolution, bs int) []complex128 {
	k := len(sol.diag)
	buf := make([]complex128, 0, (3*k-2)*bs*bs)
	for _, d := range sol.diag {
		buf = append(buf, d.Data...)
	}
	for _, d := range sol.up {
		buf = append(buf, d.Data...)
	}
	for _, d := range sol.lo {
		buf = append(buf, d.Data...)
	}
	return buf
}

func unpackSolution(buf []complex128, k, bs int) (*sepSolution, error) {
	if len(buf) != (3*k-2)*bs*bs {
		return nil, fmt.Errorf("rgf: separator solution has %d values, want %d blocks of %d", len(buf), 3*k-2, bs*bs)
	}
	// Copy out of the wire buffer: received slices may be shared between
	// in-process ranks, and result blocks must be safe to hand to the
	// workspace arena when the caller releases them.
	next := func() *cmat.Dense {
		d := cmat.NewDense(bs, bs)
		copy(d.Data, buf[:bs*bs])
		buf = buf[bs*bs:]
		return d
	}
	sol := &sepSolution{
		diag: make([]*cmat.Dense, k),
		up:   make([]*cmat.Dense, k-1),
		lo:   make([]*cmat.Dense, k-1),
	}
	for j := range sol.diag {
		sol.diag[j] = next()
	}
	for j := range sol.up {
		sol.up[j] = next()
	}
	for j := range sol.lo {
		sol.lo[j] = next()
	}
	return sol, nil
}

// finishDistributed runs phase 3: recover the local interior from the
// separator solution, then allgather every segment's interior diagonal so
// all ranks return the full replicated diagonal.
func finishDistributed(r *comm.Rank, a *cmat.BlockTri, seps []int, segs []*segment, sg *segment, sol *sepSolution) ([]*cmat.Dense, error) {
	bs := a.Bs
	out := recoverDiag(a, seps, sol, []*segment{sg}, 1)
	for k, src := range segs {
		m := src.hi - src.lo + 1
		var payload []complex128
		if k == r.ID {
			payload = make([]complex128, 0, m*bs*bs)
			for i := src.lo; i <= src.hi; i++ {
				payload = append(payload, out[i].Data...)
			}
		}
		got, err := r.Bcast(k, payload)
		if err != nil {
			return nil, fmt.Errorf("rgf: allgather of segment %d interior: %w", k, err)
		}
		if k == r.ID {
			continue
		}
		if len(got) != m*bs*bs {
			return nil, fmt.Errorf("rgf: segment %d interior has %d values, want %d blocks of %d", k, len(got), m, bs*bs)
		}
		for i := 0; i < m; i++ {
			d := cmat.NewDense(bs, bs)
			copy(d.Data, got[i*bs*bs:(i+1)*bs*bs])
			out[src.lo+i] = d
		}
	}
	return out, nil
}
