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
// the full replicated diagonal, in arena blocks of its own. A cluster of
// size 1 degenerates to the sequential solve. Requires A.N ≥ 2·Size−1 so
// every rank owns at least one interior block.
func DistributedRetarded(r *comm.Rank, a *cmat.BlockTri) ([]*cmat.Dense, error) {
	diag, gl, err := distributedRetarded(r, a)
	cmat.PutAll(gl...)
	return diag, err
}

// distributedRetarded is DistributedRetarded that also returns, on rank 0,
// the pooled left-connected blocks of its segment. Segment 0 starts at
// block 0, and its forward recursion runs the same blocks over the same
// supports as the whole chain's, so they are bitwise the chain's
// gL[0..hi₀], and the caller's forward recursion continues from them.
// Other ranks, and a one-rank cluster, return none.
func distributedRetarded(r *comm.Rank, a *cmat.BlockTri) (diag, gl []*cmat.Dense, err error) {
	p := r.Size()
	n, bs := a.N, a.Bs
	if p <= 1 {
		diag, err = retardedDiag(a)
		return diag, nil, err
	}
	if n < 2*p-1 {
		return nil, nil, fmt.Errorf("rgf: %d blocks cannot be partitioned across %d ranks", n, p)
	}
	seps := evenSeps(n, p)
	segs := buildSegments(n, seps)
	sg := segs[r.ID]

	// Phase 1: eliminate the local interior.
	if gl, err = sg.localInverse(a); err != nil {
		return nil, nil, err
	}
	if r.ID != 0 {
		cmat.PutAll(gl...)
		gl = nil
	}

	// Phase 2a: gather Schur-complement contributions at rank 0. Segment k
	// sends the slots it fills, concatenated; rank 0 knows which from the
	// segment layout alone, so the wire format needs no headers. Send
	// copies every message, so each payload goes back to the arena once it
	// is sent.
	own := sg.schurContribution(a)
	var sol *sepSolution
	if r.ID == 0 {
		contribs := make([][4]*cmat.Dense, p)
		contribs[0] = own
		for k := 1; k < p; k++ {
			buf, err := r.Recv(k)
			if err != nil {
				return nil, nil, fmt.Errorf("rgf: gathering separator contributions from rank %d: %w", k, err)
			}
			has := segs[k].slots()
			want := 0
			for _, ok := range has {
				if ok {
					want++
				}
			}
			if len(buf) != want*bs*bs {
				return nil, nil, fmt.Errorf("rgf: rank %d sent %d values, want %d contribution blocks", k, len(buf), want)
			}
			for slot, ok := range has {
				if ok {
					unpackBlocks(buf, bs, contribs[k][slot:slot+1])
					buf = buf[bs*bs:]
				}
			}
		}
		if sol, err = solveReduced(a, seps, contribs); err != nil {
			return nil, nil, err
		}
		wire := packBlocks(sol.diag, sol.up, sol.lo)
		_, err = r.Bcast(0, wire.Data)
		cmat.PutDense(wire)
		if err != nil {
			return nil, nil, fmt.Errorf("rgf: broadcasting separator solution: %w", err)
		}
	} else {
		wire := packBlocks(own[:])
		err := r.Send(0, wire.Data)
		cmat.PutDense(wire)
		cmat.PutAll(own[:]...)
		if err != nil {
			return nil, nil, fmt.Errorf("rgf: sending separator contributions: %w", err)
		}
		// Phase 2b: receive the packed separator solution.
		buf, err := r.Bcast(0, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("rgf: receiving separator solution: %w", err)
		}
		if sol, err = unpackSolution(buf, len(seps), bs); err != nil {
			return nil, nil, err
		}
	}
	diag, err = finishDistributed(r, a, seps, segs, sg, sol)
	return diag, gl, err
}

// packBlocks copies the non-nil blocks of every list, in order, into one
// pooled wire buffer; its Data is the payload.
func packBlocks(lists ...[]*cmat.Dense) *cmat.Dense {
	var bs, count int
	for _, l := range lists {
		for _, b := range l {
			if b != nil {
				bs = b.Rows
				count++
			}
		}
	}
	buf := cmat.GetDenseNoZero(count*bs, bs)
	off := 0
	for _, l := range lists {
		for _, b := range l {
			if b != nil {
				off += copy(buf.Data[off:], b.Data)
			}
		}
	}
	return buf
}

// unpackBlocks fills every entry of the lists, in order, with an arena copy
// of the next bs×bs block of buf.
func unpackBlocks(buf []complex128, bs int, lists ...[]*cmat.Dense) {
	for _, l := range lists {
		for j := range l {
			l[j] = cmat.GetDenseNoZero(bs, bs)
			buf = buf[copy(l[j].Data, buf):]
		}
	}
}

// unpackSolution reads a separator solution packed as k diag blocks, then
// k−1 upper and k−1 lower off-diagonal blocks.
func unpackSolution(buf []complex128, k, bs int) (*sepSolution, error) {
	if len(buf) != (3*k-2)*bs*bs {
		return nil, fmt.Errorf("rgf: separator solution has %d values, want %d blocks of %d", len(buf), 3*k-2, bs*bs)
	}
	sol := &sepSolution{
		diag: make([]*cmat.Dense, k),
		up:   make([]*cmat.Dense, k-1),
		lo:   make([]*cmat.Dense, k-1),
	}
	unpackBlocks(buf, bs, sol.diag, sol.up, sol.lo)
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
		var wire *cmat.Dense
		var payload []complex128
		if k == r.ID {
			wire = packBlocks(out[src.lo : src.hi+1])
			payload = wire.Data
		}
		got, err := r.Bcast(k, payload)
		cmat.PutDense(wire)
		if err != nil {
			return nil, fmt.Errorf("rgf: allgather of segment %d interior: %w", k, err)
		}
		if k == r.ID {
			continue
		}
		if len(got) != m*bs*bs {
			return nil, fmt.Errorf("rgf: segment %d interior has %d values, want %d blocks of %d", k, len(got), m, bs*bs)
		}
		unpackBlocks(got, bs, out[src.lo:src.hi+1])
	}
	return out, nil
}
