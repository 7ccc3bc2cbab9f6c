package core

import (
	"fmt"
	"sort"

	"negfsim/internal/comm"
	"negfsim/internal/device"
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
	lo, hi := max(aLo, bLo), min(aHi, bHi)
	var out []int
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}

// packG appends the G blocks (all kz) at energies [eLo, eHi) and the given
// atoms to buf, copied straight from tensor storage.
func packG(buf []complex128, g *tensor.GTensor, eLo, eHi int, atoms []int) []complex128 {
	n2 := g.Norb * g.Norb
	for e := eLo; e < eHi; e++ {
		for _, a := range atoms {
			for kz := 0; kz < g.Nkz; kz++ {
				off := ((kz*g.NE+e)*g.NA + a) * n2
				buf = append(buf, g.Data[off:off+n2]...)
			}
		}
	}
	return buf
}

// unpackG is the mirror of packG; it returns the unread rest of buf.
func unpackG(dst *tensor.GTensor, buf []complex128, eLo, eHi int, atoms []int) []complex128 {
	n2 := dst.Norb * dst.Norb
	for e := eLo; e < eHi; e++ {
		for _, a := range atoms {
			for kz := 0; kz < dst.Nkz; kz++ {
				off := ((kz*dst.NE+e)*dst.NA + a) * n2
				buf = buf[copy(dst.Data[off:off+n2], buf):]
			}
		}
	}
	return buf
}

// packD appends the D blocks at the given (qz, ω) points and atoms to buf;
// an atom's NB+1 neighbor slots are contiguous and travel as one run.
func packD(buf []complex128, d *tensor.DTensor, points [][2]int, atoms []int) []complex128 {
	run := (d.NB + 1) * d.N3D * d.N3D
	for _, qw := range points {
		for _, a := range atoms {
			off := ((qw[0]*d.Nw+qw[1])*d.NA + a) * run
			buf = append(buf, d.Data[off:off+run]...)
		}
	}
	return buf
}

// unpackD mirrors packD and returns the unread rest of buf; when add is
// true the payload accumulates (the Π reduction), otherwise it overwrites.
func unpackD(dst *tensor.DTensor, buf []complex128, points [][2]int, atoms []int, add bool) []complex128 {
	run := (dst.NB + 1) * dst.N3D * dst.N3D
	for _, qw := range points {
		for _, a := range atoms {
			off := ((qw[0]*dst.Nw+qw[1])*dst.NA + a) * run
			blk := dst.Data[off : off+run]
			if add {
				for i := range blk {
					blk[i] += buf[i]
				}
			} else {
				copy(blk, buf)
			}
			buf = buf[run:]
		}
	}
	return buf
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

// share is one message of an SSE exchange: an electron pair (G^≷ or Σ^≷)
// on energies [eLo, eHi) × atoms, all kz, followed by a phonon pair (D^≷
// or Π^≷) on points × atoms, all neighbor slots.
type share struct {
	eLo, eHi int
	atoms    []int
	points   [][2]int
}

// newShare builds a share on the energy window [eLo, eHi) ∩ [fLo, fHi).
func newShare(eLo, eHi, fLo, fHi int, atoms []int, points [][2]int) share {
	lo, hi := max(eLo, fLo), min(eHi, fHi)
	return share{eLo: lo, eHi: max(lo, hi), atoms: atoms, points: points}
}

// size is the share's payload in elements.
func (sh *share) size(p device.Params) int {
	return len(sh.atoms) * (2*(sh.eHi-sh.eLo)*p.Nkz*p.Norb*p.Norb + 2*len(sh.points)*(p.NB+1)*p.N3D*p.N3D)
}

// pack appends the share of the four tensors to buf.
func (sh *share) pack(buf []complex128, gl, gg *tensor.GTensor, dl, dg *tensor.DTensor) []complex128 {
	buf = packG(buf, gl, sh.eLo, sh.eHi, sh.atoms)
	buf = packG(buf, gg, sh.eLo, sh.eHi, sh.atoms)
	buf = packD(buf, dl, sh.points, sh.atoms)
	return packD(buf, dg, sh.points, sh.atoms)
}

// unpack mirrors pack; addD accumulates the phonon pair instead of
// overwriting it.
func (sh *share) unpack(buf []complex128, gl, gg *tensor.GTensor, dl, dg *tensor.DTensor, addD bool) {
	buf = unpackG(gl, buf, sh.eLo, sh.eHi, sh.atoms)
	buf = unpackG(gg, buf, sh.eLo, sh.eHi, sh.atoms)
	buf = unpackD(dl, buf, sh.points, sh.atoms, addD)
	unpackD(dg, buf, sh.points, sh.atoms, addD)
}

// sseWorkspace is the storage plan of the distributed SSE phase on one
// TE×TA grid: one slot per rank, allocated by that rank on its first
// phase, and the assembled result, whose four tensors are the views of
// flat. DistributedSSE builds one per call; the Born loop keeps one for a
// whole run and rebuilds it only when a recovery regrids, so every later
// phase allocates nothing.
type sseWorkspace struct {
	te, ta int
	ranks  []*rankSlot
	out    *DistributedResult
	flat   selfEnergy
}

// rankSlot is one rank's storage: its tile, the halo copies of the inputs,
// the kernel transients and outputs, the send buffers of both exchanges
// (sized exactly), and the index lists of every message, computed once.
type rankSlot struct {
	eLo, eHi, aLo, aHi int
	// gl, gg, dl, dg hold G^≷/D^≷ on the rank's energy and atom halo;
	// exchange 1 rewrites that whole region every phase.
	gl, gg     *tensor.GTensor
	dl, dg     *tensor.DTensor
	amL, amG   *tensor.AtomMajor
	preL, preG *sse.PreD
	// sigL, sigG are the Σ^≷ tile and piL, piG the Π^≷ partial.
	sigL, sigG *tensor.GTensor
	piL, piG   *tensor.DTensor
	// out1[d]/in1[d] are exchange 1's messages to/from rank d, out2/in2
	// exchange 2's.
	out1, in1, out2, in2 []share
	send1, send2         [][]complex128
	msgs                 [][]complex128 // exchange's staging of a send list
}

// exchange runs one alltoallv of the rank's send buffers. The message to
// itself travels empty, so the collective's op sequence (which a fault
// plan counts) is unchanged, and is read from its send buffer instead of
// a copy.
func (sl *rankSlot) exchange(r *comm.Rank, send [][]complex128) ([][]complex128, error) {
	copy(sl.msgs, send)
	sl.msgs[r.ID] = nil
	recv, err := r.Alltoallv(sl.msgs)
	if err != nil {
		return nil, err
	}
	recv[r.ID] = send[r.ID]
	return recv, nil
}

// newSSEWorkspace returns an empty workspace for a validated te×ta grid.
func (s *Simulator) newSSEWorkspace(te, ta int) *sseWorkspace {
	p := s.Dev.P
	flat := newSelfEnergy(p)
	return &sseWorkspace{te: te, ta: ta, ranks: make([]*rankSlot, te*ta), flat: flat, out: &DistributedResult{
		SigmaLess: flat.sigL, SigmaGtr: flat.sigG, PiLess: flat.piL, PiGtr: flat.piG,
		ModelBytes: comm.DaCeVolume(p, te, ta),
	}}
}

// slot returns rank id's storage, allocating it on the rank's first phase.
// Each rank touches only its own entry, so concurrent ranks need no lock.
func (ws *sseWorkspace) slot(s *Simulator, id int) *rankSlot {
	if ws.ranks[id] == nil {
		ws.ranks[id] = s.newRankSlot(id, ws.te, ws.ta)
	}
	return ws.ranks[id]
}

// newRankSlot allocates rank id's storage and plans its messages.
func (s *Simulator) newRankSlot(id, te, ta int) *rankSlot {
	p := s.Dev.P
	procs := te * ta
	// tile returns rank r's SSE tile and its energy halo window.
	tile := func(r int) (eLo, eHi, aLo, aHi, hLo, hHi int) {
		tE, tA := rankGrid(r, ta)
		eLo, eHi = split(p.NE, te, tE)
		aLo, aHi = split(p.NA, ta, tA)
		hLo, hHi = s.energyHalo(tE, te)
		return
	}
	sl := &rankSlot{
		gl: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb), gg: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		dl: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D), dg: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		amL: tensor.NewAtomMajor(p.Nkz, p.NE, p.NA, p.Norb), amG: tensor.NewAtomMajor(p.Nkz, p.NE, p.NA, p.Norb),
		sigL: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb), sigG: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		piL: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D), piG: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
	}
	var hLo, hHi int
	sl.eLo, sl.eHi, sl.aLo, sl.aHi, hLo, hHi = tile(id)
	sl.preL, sl.preG = s.Kernel.PreprocessDInto(nil, sl.dl), s.Kernel.PreprocessDInto(nil, sl.dg)
	halo := s.atomHalo(sl.aLo, sl.aHi)
	myLo, myHi := s.gfChunk(procs, id)
	myPts := s.phononPointsOwnedBy(id, procs)
	tileAtoms := intersect(sl.aLo, sl.aHi, 0, p.NA)
	for d := 0; d < procs; d++ {
		// Exchange 1, GF layout → SSE layout: my GF energy chunk and my
		// phonon points go to d restricted to d's energy and atom halo.
		deLo, deHi, daLo, daHi, dhLo, dhHi := tile(d)
		dLo, dHi := s.gfChunk(procs, d)
		dPts := s.phononPointsOwnedBy(d, procs)
		sl.out1 = append(sl.out1, newShare(myLo, myHi, dhLo, dhHi, s.atomHalo(daLo, daHi), myPts))
		sl.in1 = append(sl.in1, newShare(dLo, dHi, hLo, hHi, halo, dPts))
		// Exchange 2: Σ^≷ tiles to the energy owners, Π^≷ partials to the
		// point owners.
		dAtoms := intersect(daLo, daHi, 0, p.NA)
		sl.out2 = append(sl.out2, newShare(dLo, dHi, sl.eLo, sl.eHi, tileAtoms, dPts))
		sl.in2 = append(sl.in2, newShare(myLo, myHi, deLo, deHi, dAtoms, myPts))
	}
	sl.send1, sl.send2, sl.msgs = make([][]complex128, procs), make([][]complex128, procs), make([][]complex128, procs)
	for d := range sl.send1 {
		sl.send1[d] = make([]complex128, 0, sl.out1[d].size(p))
		sl.send2[d] = make([]complex128, 0, sl.out2[d].size(p))
	}
	return sl
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
	return s.distributedSSEOn(comm.NewCluster(te*ta), s.newSSEWorkspace(te, ta), in)
}

// distributedSSEOn is DistributedSSE on a caller-provided cluster, which
// may carry a shorter deadline or an armed fault plan (the fault-tolerant
// Born loop builds one per iteration), and into a caller-kept workspace of
// the cluster's grid, whose result it returns: the Born loop passes the
// same workspace every iteration, so the result is overwritten by the next
// call. MeasuredBytes reports the traffic of this call alone (the cluster's
// byte total is snapshotted on entry).
func (s *Simulator) distributedSSEOn(cluster *comm.Cluster, ws *sseWorkspace, in sse.PhaseInput) (*DistributedResult, error) {
	startBytes := cluster.TotalBytes()
	out := ws.out
	// The Π^≷ partials accumulate into the result; Σ^≷ is overwritten
	// everywhere.
	out.PiLess.Zero()
	out.PiGtr.Zero()

	err := cluster.Run(func(r *comm.Rank) error {
		sl := ws.slot(s, r.ID)

		// --- Exchange 1: GF layout → SSE layout --------------------------
		for d, sh := range sl.out1 {
			sl.send1[d] = sh.pack(sl.send1[d][:0], in.GLess, in.GGtr, in.DLess, in.DGtr)
		}
		recv, err := sl.exchange(r, sl.send1)
		if err != nil {
			return fmt.Errorf("rank %d exchange 1: %w", r.ID, err)
		}
		for from, sh := range sl.in1 {
			sh.unpack(recv[from], sl.gl, sl.gg, sl.dl, sl.dg, false)
		}

		// --- Tile computation --------------------------------------------
		s.Kernel.PreprocessDInto(sl.preL, sl.dl)
		s.Kernel.PreprocessDInto(sl.preG, sl.dg)
		sps := obsSpanDistSigma.Start()
		s.Kernel.SigmaDaCeTileInto(sl.sigL, sl.gl.ToAtomMajorInto(sl.amL), sl.preL, sl.eLo, sl.eHi, sl.aLo, sl.aHi)
		s.Kernel.SigmaDaCeTileInto(sl.sigG, sl.gg.ToAtomMajorInto(sl.amG), sl.preG, sl.eLo, sl.eHi, sl.aLo, sl.aHi)
		sps.End()
		spq := obsSpanDistPi.Start()
		s.Kernel.PiDaCeTileInto(sl.piL, sl.piG, sl.gl, sl.gg, sl.eLo, sl.eHi, sl.aLo, sl.aHi)
		spq.End()

		// --- Exchange 2: Σ tiles to energy owners, Π partials to point
		// owners ------------------------------------------------------------
		for d, sh := range sl.out2 {
			sl.send2[d] = sh.pack(sl.send2[d][:0], sl.sigL, sl.sigG, sl.piL, sl.piG)
		}
		recv, err = sl.exchange(r, sl.send2)
		if err != nil {
			return fmt.Errorf("rank %d exchange 2: %w", r.ID, err)
		}
		// Assemble the result. Every rank writes only the regions it owns
		// after exchange 2 (its GF energy chunk for Σ, its phonon points for
		// Π), so the writes are disjoint; Σ tiles are disjoint across the
		// grid and overwrite, Π partials accumulate.
		for from, sh := range sl.in2 {
			sh.unpack(recv[from], out.SigmaLess, out.SigmaGtr, out.PiLess, out.PiGtr, true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.MeasuredBytes = cluster.TotalBytes() - startBytes
	return out, nil
}
