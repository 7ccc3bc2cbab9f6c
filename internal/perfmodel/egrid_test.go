package perfmodel

import (
	"testing"

	"negfsim/internal/device"
)

func paperGrid() device.Params {
	return device.Params{
		Nkz: 3, Nqz: 3, NE: 706, Nw: 70,
		NA: 4864, NB: 4, Norb: 12, N3D: 3,
		Rows: 8, Bnum: 19,
		Emin: -1, Emax: 1,
	}
}

func TestAdaptPointsSavedBounds(t *testing.T) {
	p := paperGrid()
	for _, kind := range []string{"chain", "cnt", "nanowire", "gnr", "unknown"} {
		active, saved := AdaptPointsSaved(p, kind)
		if active < 2 || active > p.NE {
			t.Errorf("%s: active %d outside [2, %d]", kind, active, p.NE)
		}
		if saved < 0 || saved >= 1 {
			t.Errorf("%s: saved fraction %g outside [0, 1)", kind, saved)
		}
		wantSaved := 1 - float64(active)/float64(p.NE)
		if diff := saved - wantSaved; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: saved %g inconsistent with active %d (want %g)", kind, saved, active, wantSaved)
		}
	}
}

// The ISSUE's acceptance target: on resonance-dominated devices the model
// must predict the measured ≥50% point saving (EXPERIMENTS.md records the
// measured runs), and the window-spanning kinds still a material one.
func TestAdaptPointsSavedPredictsHalving(t *testing.T) {
	p := paperGrid()
	for _, tc := range []struct {
		kind     string
		minSaved float64
	}{
		{"chain", 0.5}, {"cnt", 0.5}, {"nanowire", 0.4}, {"gnr", 0.4},
	} {
		if _, saved := AdaptPointsSaved(p, tc.kind); saved < tc.minSaved {
			t.Errorf("%s: predicted saving %.2f below %.2f", tc.kind, saved, tc.minSaved)
		}
	}
}

func TestAdaptPointsSavedTinyGridNeverPays(t *testing.T) {
	p := paperGrid()
	p.NE = 12
	active, saved := AdaptPointsSaved(p, "cnt")
	if active > p.NE {
		t.Fatalf("active %d exceeds fine grid %d", active, p.NE)
	}
	// A 12-point grid seeds at 9 points: nothing meaningful to save.
	if saved > 0.25 {
		t.Errorf("tiny grid predicted %.2f saving; the seed floor should dominate", saved)
	}
}

func TestAdaptSpeedupMonotoneInSaving(t *testing.T) {
	p := paperGrid()
	sCNT := AdaptSpeedup(p, "cnt")
	sNW := AdaptSpeedup(p, "nanowire")
	if sCNT < 1 || sNW < 1 {
		t.Fatalf("speedups must be ≥ 1, got cnt=%.2f nanowire=%.2f", sCNT, sNW)
	}
	if sCNT < sNW {
		t.Errorf("cnt (more concentrated spectrum) should out-speed nanowire: %.2f < %.2f", sCNT, sNW)
	}
	// The paper-scale CNT prediction must clear break-even despite the
	// refinement ladder's re-solve overhead.
	if sCNT <= 1.2 {
		t.Errorf("paper-scale cnt speedup %.2f should clear 1.2", sCNT)
	}
}

func TestAdaptRGFFlopsScalesWithActive(t *testing.T) {
	p := paperGrid()
	active, _ := AdaptPointsSaved(p, "cnt")
	got := AdaptRGFFlops(p, "cnt")
	want := RGFFlops(p) * float64(active) / float64(p.NE)
	if got != want {
		t.Fatalf("AdaptRGFFlops = %g, want %g", got, want)
	}
	if full := RGFFlops(p); got >= full {
		t.Errorf("adaptive flops %g not below uniform %g", got, full)
	}
}
