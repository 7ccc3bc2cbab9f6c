package core

import (
	"fmt"
	"sort"

	"negfsim/internal/comm"
	"negfsim/internal/obs"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// The distributed tile computations record on the same sse.* timers as the
// shared-memory kernels (per-rank spans accumulate, like parallel tiles),
// so one dashboard covers every execution path of the SSE phase.
var (
	obsSpanDistSigma = obs.GetTimer("sse.sigma")
	obsSpanDistPi    = obs.GetTimer("sse.pi")
)

// Distributed execution of the SSE phase with the communication-avoiding
// decomposition (§4.1), carrying real tensor data over the simulated
// cluster:
//
//  1. After the GF phase, every rank owns an energy chunk of G^≷ (all kz,
//     all atoms) and a round-robin share of the (qz, ω) phonon points —
//     the natural GF-phase layout.
//  2. One alltoallv redistributes the data into the SSE layout: each rank
//     receives G^≷ on its energy window (tile + E±ℏω halo) restricted to
//     its atom tile plus the f(a, b) neighbor halo, and D^≷ for all
//     (qz, ω) on the same atom halo.
//  3. Each rank computes its Σ^≷ tile and Π^≷ partial with the tile
//     kernels (bit-identical to a slice of the serial result).
//  4. A second alltoallv returns Σ^≷ tiles to the energy owners for the
//     next GF phase and reduces the Π^≷ partials at the (qz, ω) owners.
//
// Every transferred element is counted by the cluster, so the measured
// traffic can be compared against the closed-form DaCe volume model.

// DistributedResult is the outcome of one distributed SSE phase.
type DistributedResult struct {
	SigmaLess, SigmaGtr *tensor.GTensor
	PiLess, PiGtr       *tensor.DTensor
	// MeasuredBytes is the actual traffic the exchanges generated.
	MeasuredBytes int64
	// ModelBytes is the §4.1 closed-form prediction for this decomposition.
	ModelBytes float64
}

// split returns the balanced partition boundaries of n items into parts.
func split(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// gfChunk is rank i's energy ownership in the GF layout: a contiguous
// fine-grid window whose boundaries balance the ACTIVE (actually solved)
// energy points across ranks — the point-list generalization of the
// count split, recomputed from the current grid every call so ownership
// rebalances after each adaptive refinement round. On the full grid the
// boundaries coincide with split(NE, parts, i), keeping the historical
// uniform decomposition (and its byte accounting) bit-identical. The SSE
// tile split stays count-based: the convolution's cost is per fine
// energy regardless of which points were solved.
func (s *Simulator) gfChunk(parts, i int) (lo, hi int) {
	return s.grid.ChunkBounds(parts, i)
}

// rankGrid maps rank id ↔ (energy tile, atom tile) coordinates.
func rankGrid(id, ta int) (tE, tA int) { return id / ta, id % ta }

// atomHalo returns the sorted tile ∪ neighbor atom set of an atom tile.
func (s *Simulator) atomHalo(aLo, aHi int) []int {
	set := map[int]bool{}
	for a := aLo; a < aHi; a++ {
		set[a] = true
		for _, f := range s.Dev.Neigh[a] {
			if f >= 0 {
				set[f] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// energyHalo returns the [lo, hi) energy window of SSE tile tE including
// the ±Nω halo, clamped to the grid.
func (s *Simulator) energyHalo(tE, te int) (lo, hi int) {
	p := s.Dev.P
	eLo, eHi := split(p.NE, te, tE)
	lo = eLo - p.Nw
	if lo < 0 {
		lo = 0
	}
	hi = eHi + p.Nw
	if hi > p.NE {
		hi = p.NE
	}
	return lo, hi
}

// intersect returns the ascending indices of [aLo, aHi) ∩ [bLo, bHi).
func intersect(aLo, aHi, bLo, bHi int) []int {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	var out []int
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}

// packG serializes the G blocks (all kz) at the given energies and atoms.
func packG(g *tensor.GTensor, energies, atoms []int) []complex128 {
	n2 := g.Norb * g.Norb
	buf := make([]complex128, 0, len(energies)*len(atoms)*g.Nkz*n2)
	for _, e := range energies {
		for _, a := range atoms {
			for kz := 0; kz < g.Nkz; kz++ {
				buf = append(buf, g.Block(kz, e, a).Data...)
			}
		}
	}
	return buf
}

// unpackG is the mirror of packG.
func unpackG(dst *tensor.GTensor, buf []complex128, energies, atoms []int) {
	n2 := dst.Norb * dst.Norb
	pos := 0
	for _, e := range energies {
		for _, a := range atoms {
			for kz := 0; kz < dst.Nkz; kz++ {
				copy(dst.Block(kz, e, a).Data, buf[pos:pos+n2])
				pos += n2
			}
		}
	}
}

// packD serializes the D blocks (all NB+1 slots) at the given (qz, ω)
// points and atoms.
func packD(d *tensor.DTensor, points [][2]int, atoms []int) []complex128 {
	n2 := d.N3D * d.N3D
	buf := make([]complex128, 0, len(points)*len(atoms)*(d.NB+1)*n2)
	for _, qw := range points {
		for _, a := range atoms {
			for slot := 0; slot <= d.NB; slot++ {
				buf = append(buf, d.Block(qw[0], qw[1], a, slot).Data...)
			}
		}
	}
	return buf
}

// unpackD mirrors packD; when add is true the payload accumulates (the Π
// reduction), otherwise it overwrites.
func unpackD(dst *tensor.DTensor, buf []complex128, points [][2]int, atoms []int, add bool) {
	n2 := dst.N3D * dst.N3D
	pos := 0
	for _, qw := range points {
		for _, a := range atoms {
			for slot := 0; slot <= dst.NB; slot++ {
				blk := dst.Block(qw[0], qw[1], a, slot)
				if add {
					for i := range blk.Data {
						blk.Data[i] += buf[pos+i]
					}
				} else {
					copy(blk.Data, buf[pos:pos+n2])
				}
				pos += n2
			}
		}
	}
}

// phononPointsOwnedBy lists the (qz, ω) points round-robin-assigned to a
// rank.
func (s *Simulator) phononPointsOwnedBy(rank, procs int) [][2]int {
	p := s.Dev.P
	var out [][2]int
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			if (qz*p.Nw+w)%procs == rank {
				out = append(out, [2]int{qz, w})
			}
		}
	}
	return out
}

// checkGrid validates a TE×TA decomposition against the device: the
// distributed SSE phase needs at least two ranks and one energy point per
// rank.
func (s *Simulator) checkGrid(te, ta int) error {
	procs := te * ta
	if te < 1 || ta < 1 || procs < 2 {
		return fmt.Errorf("core: distributed SSE needs ≥ 2 ranks, got %d", procs)
	}
	if s.Dev.P.NE < procs {
		return fmt.Errorf("core: %d energies cannot feed %d ranks", s.Dev.P.NE, procs)
	}
	return nil
}

// DistributedSSE runs one SSE phase on a te×ta rank grid over the
// simulated cluster. The input tensors represent the GF phase's output in
// its natural layout; each rank only touches its own chunk of them.
func (s *Simulator) DistributedSSE(in sse.PhaseInput, te, ta int) (*DistributedResult, error) {
	if err := s.checkGrid(te, ta); err != nil {
		return nil, err
	}
	return s.distributedSSEOn(comm.NewCluster(te*ta), in, te, ta)
}

// distributedSSEOn is DistributedSSE on a caller-provided cluster, which
// may carry a shorter deadline or an armed fault plan (the fault-tolerant
// Born loop builds one per iteration), or host only one rank of a
// multi-process TCP cluster. The grid must already be validated.
//
// MeasuredBytes reports the traffic of THIS call (the cluster's byte total
// is snapshotted on entry), so persistent clusters reused across Born
// iterations account identically to the historical per-iteration ones.
func (s *Simulator) distributedSSEOn(cluster *comm.Cluster, in sse.PhaseInput, te, ta int) (*DistributedResult, error) {
	p := s.Dev.P
	procs := te * ta
	startBytes := cluster.TotalBytes()
	out := &DistributedResult{
		SigmaLess:  tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		SigmaGtr:   tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		PiLess:     tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		PiGtr:      tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		ModelBytes: comm.DaCeVolume(p, te, ta),
	}

	err := cluster.Run(func(r *comm.Rank) error {
		tE, tA := rankGrid(r.ID, ta)
		eLo, eHi := split(p.NE, te, tE)
		aLo, aHi := split(p.NA, ta, tA)
		halo := s.atomHalo(aLo, aHi)
		hLo, hHi := s.energyHalo(tE, te)

		// --- Exchange 1: GF layout → SSE layout --------------------------
		send := make([][]complex128, procs)
		for d := 0; d < procs; d++ {
			dtE, dtA := rankGrid(d, ta)
			daLo, daHi := split(p.NA, ta, dtA)
			dHalo := s.atomHalo(daLo, daHi)
			dhLo, dhHi := s.energyHalo(dtE, te)
			// My GF energy chunk intersected with d's halo window.
			myLo, myHi := s.gfChunk(procs, r.ID)
			energies := intersect(myLo, myHi, dhLo, dhHi)
			var buf []complex128
			buf = append(buf, packG(in.GLess, energies, dHalo)...)
			buf = append(buf, packG(in.GGtr, energies, dHalo)...)
			// My phonon points restricted to d's atom halo.
			pts := s.phononPointsOwnedBy(r.ID, procs)
			buf = append(buf, packD(in.DLess, pts, dHalo)...)
			buf = append(buf, packD(in.DGtr, pts, dHalo)...)
			send[d] = buf
		}
		recv, err := r.Alltoallv(send)
		if err != nil {
			return fmt.Errorf("rank %d exchange 1: %w", r.ID, err)
		}
		gl := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
		gg := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
		dl := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
		dg := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
		for from := 0; from < procs; from++ {
			fLo, fHi := s.gfChunk(procs, from)
			energies := intersect(fLo, fHi, hLo, hHi)
			n2 := p.Norb * p.Norb
			gLen := len(energies) * len(halo) * p.Nkz * n2
			buf := recv[from]
			unpackG(gl, buf[:gLen], energies, halo)
			unpackG(gg, buf[gLen:2*gLen], energies, halo)
			pts := s.phononPointsOwnedBy(from, procs)
			dLen := len(pts) * len(halo) * (p.NB + 1) * p.N3D * p.N3D
			unpackD(dl, buf[2*gLen:2*gLen+dLen], pts, halo, false)
			unpackD(dg, buf[2*gLen+dLen:], pts, halo, false)
		}

		// --- Tile computation --------------------------------------------
		preL := s.Kernel.PreprocessD(dl)
		preG := s.Kernel.PreprocessD(dg)
		sps := obsSpanDistSigma.Start()
		sigL := s.Kernel.SigmaDaCeTile(gl, preL, eLo, eHi, aLo, aHi)
		sigG := s.Kernel.SigmaDaCeTile(gg, preG, eLo, eHi, aLo, aHi)
		sps.End()
		spq := obsSpanDistPi.Start()
		piL, piG := s.Kernel.PiDaCeTile(gl, gg, eLo, eHi, aLo, aHi)
		spq.End()

		// --- Exchange 2: Σ tiles to energy owners, Π partials to point
		// owners ------------------------------------------------------------
		if cluster.MultiProcess() {
			// Ranks in other OS processes cannot assemble into this process's
			// shared tensors; replicate instead — every rank sends its full
			// tile everywhere, and each process assembles the complete result
			// locally, so the next (replicated) GF phase starts from identical
			// inputs on every peer.
			return s.assembleReplicated(r, out, sigL, sigG, piL, piG, eLo, eHi, aLo, aHi, te, ta)
		}
		tileAtoms := intersect(aLo, aHi, 0, p.NA)
		send2 := make([][]complex128, procs)
		for d := 0; d < procs; d++ {
			dLo, dHi := s.gfChunk(procs, d)
			energies := intersect(dLo, dHi, eLo, eHi)
			var buf []complex128
			buf = append(buf, packG(sigL, energies, tileAtoms)...)
			buf = append(buf, packG(sigG, energies, tileAtoms)...)
			pts := s.phononPointsOwnedBy(d, procs)
			buf = append(buf, packD(piL, pts, tileAtoms)...)
			buf = append(buf, packD(piG, pts, tileAtoms)...)
			send2[d] = buf
		}
		recv2, err := r.Alltoallv(send2)
		if err != nil {
			return fmt.Errorf("rank %d exchange 2: %w", r.ID, err)
		}
		// Assemble the shared result: every rank writes only the regions it
		// owns after exchange 2 (its GF energy chunk for Σ, its phonon
		// points for Π), so the writes are disjoint.
		myLo, myHi := s.gfChunk(procs, r.ID)
		myPts := s.phononPointsOwnedBy(r.ID, procs)
		for from := 0; from < procs; from++ {
			_, ftA := rankGrid(from, ta)
			faLo, faHi := split(p.NA, ta, ftA)
			fAtoms := intersect(faLo, faHi, 0, p.NA)
			fELo, fEHi := split(p.NE, te, from/ta)
			energies := intersect(myLo, myHi, fELo, fEHi)
			n2 := p.Norb * p.Norb
			gLen := len(energies) * len(fAtoms) * p.Nkz * n2
			buf := recv2[from]
			unpackG(out.SigmaLess, buf[:gLen], energies, fAtoms)
			unpackG(out.SigmaGtr, buf[gLen:2*gLen], energies, fAtoms)
			dLen := len(myPts) * len(fAtoms) * (p.NB + 1) * p.N3D * p.N3D
			unpackD(out.PiLess, buf[2*gLen:2*gLen+dLen], myPts, fAtoms, true)
			unpackD(out.PiGtr, buf[2*gLen+dLen:], myPts, fAtoms, true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.MeasuredBytes = cluster.TotalBytes() - startBytes
	return out, nil
}

// assembleReplicated is the multi-process variant of exchange 2: one
// alltoallv in which every rank contributes its full Σ^≷ tile and Π^≷
// partial to every peer. Receivers overwrite Σ by tile coordinates (tiles
// are disjoint across the TE×TA grid) and accumulate the Π partials (each
// covers a disjoint energy window), so every process — not just the owners
// of an energy chunk or a phonon point — ends with the complete
// self-energies. That replication costs more traffic than the
// owner-directed exchange (ModelBytes still reports the §4.1 prediction for
// the owner-directed pattern), but it is what lets the replicated GF phase
// of the SPMD peers proceed without a further broadcast.
func (s *Simulator) assembleReplicated(r *comm.Rank, out *DistributedResult,
	sigL, sigG *tensor.GTensor, piL, piG *tensor.DTensor,
	eLo, eHi, aLo, aHi, te, ta int) error {
	p := s.Dev.P
	procs := te * ta
	allPts := s.phononPointsOwnedBy(0, 1) // every (qz, ω) point
	tileAtoms := intersect(aLo, aHi, 0, p.NA)
	tileEnergies := intersect(eLo, eHi, 0, p.NE)
	var buf []complex128
	buf = append(buf, packG(sigL, tileEnergies, tileAtoms)...)
	buf = append(buf, packG(sigG, tileEnergies, tileAtoms)...)
	buf = append(buf, packD(piL, allPts, tileAtoms)...)
	buf = append(buf, packD(piG, allPts, tileAtoms)...)
	send := make([][]complex128, procs)
	for d := range send {
		send[d] = buf // Send copies; sharing one payload across peers is safe
	}
	recv, err := r.Alltoallv(send)
	if err != nil {
		return fmt.Errorf("rank %d replicated exchange 2: %w", r.ID, err)
	}
	n2 := p.Norb * p.Norb
	for from := 0; from < procs; from++ {
		ftE, ftA := rankGrid(from, ta)
		faLo, faHi := split(p.NA, ta, ftA)
		fAtoms := intersect(faLo, faHi, 0, p.NA)
		fELo, fEHi := split(p.NE, te, ftE)
		fEnergies := intersect(fELo, fEHi, 0, p.NE)
		gLen := len(fEnergies) * len(fAtoms) * p.Nkz * n2
		fbuf := recv[from]
		unpackG(out.SigmaLess, fbuf[:gLen], fEnergies, fAtoms)
		unpackG(out.SigmaGtr, fbuf[gLen:2*gLen], fEnergies, fAtoms)
		dLen := len(allPts) * len(fAtoms) * (p.NB + 1) * p.N3D * p.N3D
		unpackD(out.PiLess, fbuf[2*gLen:2*gLen+dLen], allPts, fAtoms, true)
		unpackD(out.PiGtr, fbuf[2*gLen+dLen:], allPts, fAtoms, true)
	}
	return nil
}
