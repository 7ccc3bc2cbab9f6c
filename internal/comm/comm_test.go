package comm

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"negfsim/internal/device"
)

// --- volume models vs the paper's printed tables ------------------------------

func TestTable4WeakScalingMatchesPaper(t *testing.T) {
	// Table 4: NA=4864, NB=34, Norb=12, NE=706, Nω=70; P = 256·Nkz.
	want := []struct {
		nkz        int
		procs      int
		omen, dace float64
	}{
		{3, 768, 32.11, 0.54},
		{5, 1280, 89.18, 1.22},
		{7, 1792, 174.80, 2.17},
		{9, 2304, 288.95, 3.38},
		{11, 2816, 431.65, 4.86},
	}
	for _, row := range want {
		procs, omen, dace := Table4Row(row.nkz)
		if procs != row.procs {
			t.Fatalf("Nkz=%d: procs=%d, want %d", row.nkz, procs, row.procs)
		}
		if math.Abs(omen-row.omen) > 0.02*row.omen {
			t.Fatalf("Nkz=%d: OMEN volume %.2f TiB, paper prints %.2f", row.nkz, omen, row.omen)
		}
		if math.Abs(dace-row.dace) > 0.03*row.dace {
			t.Fatalf("Nkz=%d: DaCe volume %.2f TiB, paper prints %.2f", row.nkz, dace, row.dace)
		}
	}
}

func TestTable5StrongScalingMatchesPaper(t *testing.T) {
	// Table 5: Nkz = 7, TE = 7, TA = P/7.
	want := []struct {
		procs      int
		omen, dace float64
	}{
		{224, 108.24, 0.95},
		{448, 117.75, 1.13},
		{896, 136.76, 1.48},
		{1792, 174.80, 2.17},
		{2688, 212.84, 2.87},
	}
	for _, row := range want {
		omen, dace := Table5Row(row.procs)
		if math.Abs(omen-row.omen) > 0.02*row.omen {
			t.Fatalf("P=%d: OMEN %.2f TiB, paper prints %.2f", row.procs, omen, row.omen)
		}
		if math.Abs(dace-row.dace) > 0.03*row.dace {
			t.Fatalf("P=%d: DaCe %.2f TiB, paper prints %.2f", row.procs, dace, row.dace)
		}
	}
}

func TestDaCeEliminatesQuadraticMomentumFactor(t *testing.T) {
	// §4.1: OMEN's G^≷ volume carries Nkz·Nqz; the CA scheme only Nkz.
	// Growing Nkz (with Nqz = Nkz) must grow the ratio OMEN/DaCe linearly.
	r3 := OMENVolume(device.Paper4864(3), 768) / DaCeVolume(device.Paper4864(3), 3, 256)
	r11 := OMENVolume(device.Paper4864(11), 2816) / DaCeVolume(device.Paper4864(11), 11, 256)
	if r11 < 1.3*r3 {
		t.Fatalf("ratio should grow with Nkz: %.1f (Nkz=3) vs %.1f (Nkz=11)", r3, r11)
	}
	if r3 < 10 {
		t.Fatalf("CA scheme should win by orders of magnitude, ratio %.1f", r3)
	}
}

// --- tile search ---------------------------------------------------------------

func TestSearchTilesFindsMinimum(t *testing.T) {
	p := device.Paper4864(7)
	best, feasible := SearchTiles(p, 1792, 0)
	if len(feasible) == 0 {
		t.Fatal("no feasible decompositions")
	}
	for _, d := range feasible {
		if d.Bytes < best.Bytes {
			t.Fatalf("search missed a better decomposition %+v < %+v", d, best)
		}
	}
	if best.TE*best.TA != 1792 {
		t.Fatalf("best decomposition %d×%d does not cover 1792 processes", best.TE, best.TA)
	}
	// The optimum balances the NE/TE and NA/TA halo terms; it must beat the
	// naive all-energy split by a measurable margin.
	naive := DaCeVolume(p, 1792, 1)
	if best.Bytes >= naive {
		t.Fatal("search should beat the energy-only decomposition")
	}
}

func TestSearchTilesMemoryLimit(t *testing.T) {
	p := device.Paper4864(7)
	unlimited, _ := SearchTiles(p, 1792, 0)
	// A limit tight enough to exclude the unlimited optimum must change it.
	lim := PerProcessMemory(p, unlimited.TE, unlimited.TA) * 0.9
	constrained, feasible := SearchTiles(p, 1792, lim)
	if len(feasible) == 0 {
		t.Skip("limit excluded everything; not informative")
	}
	for _, d := range feasible {
		if PerProcessMemory(p, d.TE, d.TA) > lim {
			t.Fatal("memory limit not enforced")
		}
	}
	if constrained.TE == unlimited.TE && constrained.TA == unlimited.TA {
		t.Fatal("constrained optimum should differ from unlimited one")
	}
}

func TestPerProcessMemoryShrinksWithTiles(t *testing.T) {
	p := device.Paper4864(7)
	if PerProcessMemory(p, 7, 64) >= PerProcessMemory(p, 7, 8) {
		t.Fatal("more atom partitions must mean less memory per process")
	}
	if PerProcessMemory(p, 14, 8) >= PerProcessMemory(p, 7, 8) {
		t.Fatal("more energy partitions must mean less memory per process")
	}
}

// --- simulated cluster ---------------------------------------------------------

func TestSendRecvAndAccounting(t *testing.T) {
	c := NewCluster(2)
	err := c.Run(func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, make([]complex128, 100))
		}
		data, err := r.Recv(0)
		if err != nil {
			return err
		}
		if len(data) != 100 {
			t.Errorf("received %d elements", len(data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalBytes(); got != 1600 {
		t.Fatalf("accounted %d bytes, want 1600", got)
	}
	if c.SentBytes(0) != 1600 || c.ReceivedBytes(1) != 1600 {
		t.Fatal("per-rank accounting wrong")
	}
}

func TestSelfSendUncounted(t *testing.T) {
	c := NewCluster(1)
	err := c.Run(func(r *Rank) error {
		if err := r.Send(0, make([]complex128, 50)); err != nil {
			return err
		}
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalBytes() != 0 {
		t.Fatal("self-sends must not count as communication")
	}
}

func TestBcastReduceAllreduce(t *testing.T) {
	c := NewCluster(4)
	var sum atomic.Int64
	err := c.Run(func(r *Rank) error {
		// Bcast: everyone ends with root's data.
		data := []complex128{complex(float64(r.ID), 0)}
		got, err := r.Bcast(2, data)
		if err != nil {
			return err
		}
		if got[0] != 2 {
			t.Errorf("rank %d got bcast %v", r.ID, got[0])
		}
		// Reduce: root receives the sum 0+1+2+3 = 6.
		red, err := r.Reduce(1, []complex128{complex(float64(r.ID), 0)})
		if err != nil {
			return err
		}
		if r.ID == 1 && red[0] != 6 {
			t.Errorf("reduce sum %v, want 6", red[0])
		}
		// Allreduce: everyone has the sum.
		all, err := r.Allreduce([]complex128{1})
		if err != nil {
			return err
		}
		sum.Add(int64(real(all[0])))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 16 { // each of 4 ranks sees 4
		t.Fatalf("allreduce total %d, want 16", sum.Load())
	}
}

func TestAlltoallv(t *testing.T) {
	c := NewCluster(3)
	err := c.Run(func(r *Rank) error {
		send := make([][]complex128, 3)
		for to := 0; to < 3; to++ {
			send[to] = []complex128{complex(float64(10*r.ID+to), 0)}
		}
		got, err := r.Alltoallv(send)
		if err != nil {
			return err
		}
		for from := 0; from < 3; from++ {
			want := complex(float64(10*from+r.ID), 0)
			if got[from][0] != want {
				t.Errorf("rank %d from %d: %v, want %v", r.ID, from, got[from][0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 ranks × 2 off-rank messages × 16 bytes.
	if got := c.TotalBytes(); got != 3*2*16 {
		t.Fatalf("alltoallv bytes = %d", got)
	}
}

func TestRecvTimeoutSurfacesDeadlock(t *testing.T) {
	c := NewCluster(2)
	c.timeout = 50 * 1e6 // 50ms
	err := c.Run(func(r *Rank) error {
		if r.ID == 1 {
			_, err := r.Recv(0) // rank 0 never sends
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected timeout error")
	}
}

func TestRankFailurePropagates(t *testing.T) {
	c := NewCluster(3)
	boom := errors.New("injected rank failure")
	err := c.Run(func(r *Rank) error {
		if r.ID == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

func TestRankPanicRecovered(t *testing.T) {
	c := NewCluster(2)
	err := c.Run(func(r *Rank) error {
		if r.ID == 0 {
			panic("simulated crash")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic must surface as error")
	}
}

// --- exchange patterns vs models -----------------------------------------------

func TestOMENExchangeMatchesModel(t *testing.T) {
	p := device.Mini()
	const procs = 4
	c := NewCluster(procs)
	if err := c.Run(func(r *Rank) error { return OMENExchangeSSE(r, p) }); err != nil {
		t.Fatal(err)
	}
	want := ExpectedOMENExchangeBytes(p, procs)
	if got := c.TotalBytes(); got != want {
		t.Fatalf("measured %d bytes, model predicts %d", got, want)
	}
	// The idealized formula differs only by the (P−1)/P broadcast factor.
	model := OMENVolume(p, procs)
	ratio := float64(want) / model
	if ratio < float64(procs-1)/float64(procs)-0.01 || ratio > 1.01 {
		t.Fatalf("exchange/model ratio %.3f outside [(P−1)/P, 1]", ratio)
	}
}

func TestDaCeExchangeMatchesModel(t *testing.T) {
	p := device.Mini()
	const te, ta = 2, 2
	c := NewCluster(te * ta)
	if err := c.Run(func(r *Rank) error { return DaCeExchangeSSE(r, p, te, ta) }); err != nil {
		t.Fatal(err)
	}
	want := ExpectedDaCeExchangeBytes(p, te, ta)
	if got := c.TotalBytes(); got != want {
		t.Fatalf("measured %d bytes, model predicts %d", got, want)
	}
	model := DaCeVolume(p, te, ta)
	if math.Abs(float64(want)-model) > 0.02*model {
		t.Fatalf("integer exchange %d vs closed form %.0f", want, model)
	}
}

func TestDaCeExchangeRejectsBadGrid(t *testing.T) {
	p := device.Mini()
	c := NewCluster(4)
	err := c.Run(func(r *Rank) error { return DaCeExchangeSSE(r, p, 3, 2) })
	if err == nil {
		t.Fatal("TE·TA mismatch must fail")
	}
}

func TestExchangeVolumesFavorDaCeAtMiniScale(t *testing.T) {
	// The paper's headline at laptop scale: on the same 4 ranks the
	// original decomposition moves a multiple of the CA traffic. At mini
	// scale (Nqz·Nω = 12 rounds, NE/P = 4) the replication factor is
	// bounded; at paper scale the same ratio is 60–90× (Table 4).
	p := device.Mini()
	const procs = 4
	omen := ExpectedOMENExchangeBytes(p, procs)
	dace := ExpectedDaCeExchangeBytes(p, 2, 2)
	if omen < 2*dace {
		t.Fatalf("OMEN exchange (%d B) should be at least twice the CA exchange (%d B)", omen, dace)
	}
}
