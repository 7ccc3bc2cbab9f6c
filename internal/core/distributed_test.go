package core

import (
	"math/rand"
	"testing"

	"negfsim/internal/comm"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// randomPhaseInput returns G^≷/D^≷ of the simulator's shape filled with
// seeded random values.
func randomPhaseInput(s *Simulator, seed int64) sse.PhaseInput {
	p := s.Dev.P
	rng := rand.New(rand.NewSource(seed))
	in := sse.PhaseInput{
		GLess: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb), GGtr: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		DLess: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D), DGtr: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
	}
	for _, data := range [][]complex128{in.GLess.Data, in.GGtr.Data, in.DLess.Data, in.DGtr.Data} {
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return in
}

// TestDistributedWorkspaceReuseMatchesFresh carries one workspace through
// two phases with different inputs and checks each against a fresh
// DistributedSSE bit for bit: stale halo data, a PreD or tile output left
// unzeroed, or a Π result that keeps accumulating across phases would all
// show. It is not -short-skipped, so the race gate covers the ranks'
// disjoint writes into the shared result. It also pins the exact sizing of
// the send buffers: each is packed to its capacity, and the non-self
// payloads add up to the measured traffic, which stays within
// comm.ExpectedDaCeExchangeBytes.
func TestDistributedWorkspaceReuseMatchesFresh(t *testing.T) {
	s := miniSim(t, DefaultOptions())
	for _, g := range [][2]int{{1, 2}, {2, 1}, {2, 2}} {
		te, ta := g[0], g[1]
		ws := s.newSSEWorkspace(te, ta)
		cl := comm.NewCluster(te * ta)
		for phase, seed := range []int64{1, 2} {
			in := randomPhaseInput(s, seed+int64(10*te+ta))
			got, err := s.distributedSSEOn(cl, ws, in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.DistributedSSE(in, te, ta)
			if err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2][]complex128{
				"Σ<": {got.SigmaLess.Data, want.SigmaLess.Data}, "Σ>": {got.SigmaGtr.Data, want.SigmaGtr.Data},
				"Π<": {got.PiLess.Data, want.PiLess.Data}, "Π>": {got.PiGtr.Data, want.PiGtr.Data},
			} {
				for i := range pair[0] {
					if pair[0][i] != pair[1][i] {
						t.Fatalf("%d×%d phase %d: reused workspace %s[%d] = %v, fresh %v", te, ta, phase+1, name, i, pair[0][i], pair[1][i])
					}
				}
			}
			if got.MeasuredBytes != want.MeasuredBytes {
				t.Fatalf("%d×%d phase %d: reused workspace moved %d B, fresh %d B", te, ta, phase+1, got.MeasuredBytes, want.MeasuredBytes)
			}
			var payload int64
			for id, sl := range ws.ranks {
				for _, send := range [][][]complex128{sl.send1, sl.send2} {
					for d, buf := range send {
						if len(buf) != cap(buf) {
							t.Fatalf("%d×%d rank %d: send buffer to %d holds %d of %d elements — not sized exactly", te, ta, id, d, len(buf), cap(buf))
						}
						if d != id {
							payload += int64(16 * len(buf))
						}
					}
				}
			}
			if payload != got.MeasuredBytes {
				t.Fatalf("%d×%d: send buffers hold %d B off-rank, the exchanges moved %d B", te, ta, payload, got.MeasuredBytes)
			}
			// The real halos are clamped and Σ^≷ returns without one, so the
			// traffic stays under the closed-form exchange volume.
			if bound := comm.ExpectedDaCeExchangeBytes(s.Dev.P, te, ta); payload > bound {
				t.Fatalf("%d×%d: exchanges moved %d B, above ExpectedDaCeExchangeBytes %d", te, ta, payload, bound)
			}
		}
	}
}
