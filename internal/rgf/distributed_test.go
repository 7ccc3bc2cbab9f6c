package rgf

import (
	"fmt"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/perfmodel"
)

// sequentialDiag is the oracle: the plain recursion's diagonal.
func sequentialDiag(t *testing.T, a *cmat.BlockTri) []*cmat.Dense {
	t.Helper()
	ret, err := SolveRetarded(a)
	if err != nil {
		t.Fatalf("sequential solve: %v", err)
	}
	return ret.Diag
}

func maxDiagDiff(got, want []*cmat.Dense) float64 {
	var worst float64
	for i := range want {
		if d := got[i].MaxAbsDiff(want[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// evenSeps never places two separators side by side or one at a chain end,
// for any size the solvers accept, so buildSegments' segments are all
// non-empty and assembleReduced couples every pair of neighboring
// separators through the segment between them.
func TestEvenSepsNeverAdjacentOrAtEnds(t *testing.T) {
	for segments := 2; segments <= 12; segments++ {
		for n := 2*segments - 1; n <= 64; n++ {
			seps := evenSeps(n, segments)
			if len(seps) != segments-1 || seps[0] < 1 || seps[len(seps)-1] > n-2 {
				t.Fatalf("n=%d segments=%d: separators %v reach a chain end", n, segments, seps)
			}
			for j := 1; j < len(seps); j++ {
				if seps[j] < seps[j-1]+2 {
					t.Fatalf("n=%d segments=%d: separators %v leave an empty segment", n, segments, seps)
				}
			}
		}
	}
}

// Minimum-size partitions: N = 2·segments−1 leaves every segment exactly
// one block. Pinned to the sequential recursion at 1e-12.
func TestPartitionedMinimumSizeSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for segments := 2; segments <= 5; segments++ {
		n := 2*segments - 1
		a := randomSystem(rng, n, 3, 2.5, 0.6)
		want := sequentialDiag(t, a)
		got, err := PartitionedRetarded(a, segments, segments)
		if err != nil {
			t.Fatalf("segments=%d: %v", segments, err)
		}
		if d := maxDiagDiff(got, want); d > 1e-12 {
			t.Errorf("segments=%d n=%d: max |Δ| = %g > 1e-12", segments, n, d)
		}
	}
}

func TestPartitionedTwoSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{3, 4, 8, 11} {
		a := randomSystem(rng, n, 3, 2.5, 0.6)
		want := sequentialDiag(t, a)
		got, err := PartitionedRetarded(a, 2, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxDiagDiff(got, want); d > 1e-12 {
			t.Errorf("n=%d: max |Δ| = %g > 1e-12", n, d)
		}
	}
}

// More workers than segments must change nothing (and the -race run of
// `make partition-test` checks the oversubscribed pool is clean).
func TestPartitionedWorkersExceedSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomSystem(rng, 9, 3, 2.5, 0.6)
	want := sequentialDiag(t, a)
	got, err := PartitionedRetarded(a, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiagDiff(got, want); d > 1e-12 {
		t.Errorf("workers=16 segments=3: max |Δ| = %g > 1e-12", d)
	}
}

// Every rank of the in-process cluster must return the full replicated
// diagonal of the sequential solve.
func TestDistributedRetardedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for p := 2; p <= 5; p++ {
		for _, n := range []int{2*p - 1, 4 * p} {
			a := randomSystem(rng, n, 3, 2.5, 0.6)
			want := sequentialDiag(t, a)
			cluster := comm.NewCluster(p)
			worst := make([]float64, p)
			err := cluster.Run(func(r *comm.Rank) error {
				out, err := DistributedRetarded(r, a)
				if err != nil {
					return err
				}
				worst[r.ID] = maxDiagDiff(out, want)
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			for rank, d := range worst {
				if d > 1e-12 {
					t.Errorf("p=%d n=%d rank %d: max |Δ| = %g > 1e-12", p, n, rank, d)
				}
			}
		}
	}
}

func TestDistributedRetardedSingleRankFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomSystem(rng, 5, 2, 2.5, 0.6)
	want := sequentialDiag(t, a)
	cluster := comm.NewCluster(1)
	if err := cluster.Run(func(r *comm.Rank) error {
		out, err := DistributedRetarded(r, a)
		if err != nil {
			return err
		}
		if d := maxDiagDiff(out, want); d > 1e-12 {
			t.Errorf("single rank: max |Δ| = %g", d)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedRetardedTooFewBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomSystem(rng, 4, 2, 2.5, 0.6) // 3 ranks need ≥ 5 blocks
	cluster := comm.NewCluster(3)
	if err := cluster.Run(func(r *comm.Rank) error {
		_, err := DistributedRetarded(r, a)
		return err
	}); err == nil {
		t.Fatal("want partition-infeasible error, got none")
	}
}

// The solver's counted traffic must agree with the perfmodel spatial-split
// byte formula exactly (the in-process half of the conformance pin; the
// TCP half lives in the comm conformance suite).
func TestDistributedRetardedBytesMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, tc := range []struct{ p, n, bs int }{
		{2, 3, 2}, {2, 8, 3}, {3, 5, 2}, {3, 9, 4}, {4, 7, 2}, {5, 12, 3},
	} {
		a := randomSystem(rng, tc.n, tc.bs, 2.5, 0.6)
		cluster := comm.NewCluster(tc.p)
		if err := cluster.Run(func(r *comm.Rank) error {
			_, err := DistributedRetarded(r, a)
			return err
		}); err != nil {
			t.Fatalf("p=%d n=%d bs=%d: %v", tc.p, tc.n, tc.bs, err)
		}
		want := perfmodel.SpatialExchangeBytes(tc.n, tc.bs, tc.p)
		if got := cluster.TotalBytes(); got != want {
			t.Errorf("p=%d n=%d bs=%d: measured %d bytes, model %d", tc.p, tc.n, tc.bs, got, want)
		}
	}
}

// Rank 0's segment starts at block 0, so the left-connected blocks
// distributedRetarded hands it are bitwise the whole chain's leading
// gL[0..hi₀], from which solveOpen continues the forward recursion; the
// other ranks get none.
func TestDistributedSegmentGLIsChainPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 9
	h, s := boundaryOpenSystem(rng, n, 40, 10)
	a, err := electronOperator(h, s, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sup := couplingsOf(a)
	defer sup.release()
	want, err := forwardGL(a, sup, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3} {
		var gl []*cmat.Dense
		cl := comm.NewCluster(p)
		if err := cl.Run(func(rk *comm.Rank) error {
			_, g, err := distributedRetarded(rk, a)
			if rk.ID == 0 {
				gl = g
			} else if g != nil {
				t.Errorf("p=%d: rank %d got %d gL blocks, want none", p, rk.ID, len(g))
			}
			return err
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if hi0 := evenSeps(n, p)[0] - 1; len(gl) != hi0+1 {
			t.Fatalf("p=%d: rank 0 got %d gL blocks, want %d", p, len(gl), hi0+1)
		}
		sameBits(t, fmt.Sprintf("p=%d rank 0 gL", p), gl, want[:len(gl)])
	}
}
