package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"negfsim/internal/device"
)

func TestCheckpointRoundTripAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	opts := DefaultOptions()
	opts.MaxIter = 3
	s1 := miniSim(t, opts)
	first, err := s1.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CheckpointOf(device.WrapParams(s1.Dev.P), first).Save(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ck.SigmaLess.MaxAbsDiff(first.SigmaLess) != 0 {
		t.Fatal("checkpoint round trip altered Σ")
	}

	// A run that goes 3+3 iterations via checkpoint must land close to a
	// straight 6-iteration run (the mixing history restarts, so agreement
	// is to the convergence scale, not bit-exact).
	resumed, _, err := miniSim(t, opts).born(context.Background(), DistConfig{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	optsFull := DefaultOptions()
	optsFull.MaxIter = 6
	full, err := miniSim(t, optsFull).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := resumed.GLess.MaxAbsDiff(full.GLess); d > 1e-3 {
		t.Fatalf("resumed run far from the straight-through run: %g", d)
	}
	// And the resumed run starts much closer to the fixed point than a
	// fresh one: its first residual is far below the cold-start residual.
	if len(resumed.Residuals) == 0 || len(full.Residuals) == 0 {
		t.Fatal("missing residual histories")
	}
	if resumed.Residuals[0] > full.Residuals[0]/2 {
		t.Fatalf("warm start residual %g should beat cold start %g",
			resumed.Residuals[0], full.Residuals[0])
	}
}

func TestCheckpointCompatibility(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 2
	s := miniSim(t, opts)
	res, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ck := CheckpointOf(device.WrapParams(s.Dev.P), res)
	other := device.Mini()
	other.NE = 8
	if err := ck.Compatible(device.WrapParams(other)); err == nil {
		t.Fatal("mismatched parameters must be rejected")
	}
	dev, _ := device.New(other)
	if _, _, err := New(dev, opts).born(context.Background(), DistConfig{Resume: ck}); err == nil {
		t.Fatal("a resume must reject incompatible checkpoints")
	}
}

func TestCheckpointRequiresSelfEnergies(t *testing.T) {
	var buf bytes.Buffer
	empty := &Checkpoint{}
	if err := empty.Save(&buf); err == nil {
		t.Fatal("empty checkpoint must not save")
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("corrupt checkpoint must fail to load")
	}
}

// TestClusteredCheckpointIsRunOwned pins the clustered run's restart
// snapshot, which lives in storage the run reuses every iteration. The
// checkpoint written after iteration k must hold iteration k's mixed Σ^≷/Π^≷
// bit for bit (a run stopped at k is the reference), and still does after
// later iterations; and a run resumed from a checkpoint never writes into
// it, so the checkpoint encodes byte-identically afterwards.
func TestClusteredCheckpointIsRunOwned(t *testing.T) {
	const k = 2
	place := DistConfig{TE: 1, TA: 2}
	opts := DefaultOptions()
	opts.MaxIter = k
	ref, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), place)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	var atK *Checkpoint
	opts.MaxIter = k + 2
	opts.Tol = 0 // run every iteration
	opts.OnIteration = func(st IterStats) {
		if st.Iter != k {
			return
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if atK, err = LoadCheckpoint(f); err != nil {
			t.Fatal(err)
		}
	}
	longer := place
	longer.CheckpointPath = path
	if _, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), longer); err != nil {
		t.Fatal(err)
	}
	if atK == nil || atK.Iterations != k {
		t.Fatalf("no checkpoint of iteration %d was written", k)
	}
	for name, pair := range map[string][2][]complex128{
		"Σ<": {atK.SigmaLess.Data, ref.SigmaLess.Data}, "Σ>": {atK.SigmaGtr.Data, ref.SigmaGtr.Data},
		"Π<": {atK.PiLess.Data, ref.PiLess.Data}, "Π>": {atK.PiGtr.Data, ref.PiGtr.Data},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("checkpoint of iteration %d: %s[%d] = %v, the run stopped there mixed %v", k, name, i, pair[0][i], pair[1][i])
			}
		}
	}

	seed := CheckpointOf(device.WrapParams(device.Mini()), ref)
	var before, after bytes.Buffer
	if err := seed.Save(&before); err != nil {
		t.Fatal(err)
	}
	opts.OnIteration = nil
	resume := place
	resume.Resume = seed
	if _, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), resume); err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a run resumed from a checkpoint changed the checkpoint")
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint decoder
// that the -checkpoint file and a warm-start submission reach: nothing may
// panic, and a checkpoint it accepts has self-energies shaped by its grid
// and can seed the Born loop (seedOf) and, when it carries an energy grid,
// an adaptive resume (State.Grid). The seed is a checkpoint of
// examples/run.json's device after one iteration; testdata/fuzz holds the
// hand-made checkpoints that crashed a resume before LoadCheckpoint checked
// shapes.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg, err := LoadRunConfig("../../examples/run.json")
	if err != nil {
		f.Fatal(err)
	}
	cfg.MaxIter = 1
	sim, err := cfg.NewSimulator()
	if err != nil {
		f.Fatal(err)
	}
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CheckpointOf(cfg.Device, res).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := LoadCheckpoint(bytes.NewReader(body))
		if err != nil {
			return
		}
		p := ck.Params
		if g := ck.SigmaGtr; g.Nkz != p.Nkz || g.NE != p.NE || g.NA != p.NA || g.Norb != p.Norb || len(g.Data) != p.Nkz*p.NE*p.NA*p.Norb*p.Norb {
			t.Fatalf("accepted Σ> of shape %d×%d×%d×%d² (%d elements) for the grid %+v", g.Nkz, g.NE, g.NA, g.Norb, len(g.Data), p)
		}
		if d := ck.PiGtr; d.Nqz != p.Nqz || d.Nw != p.Nw || d.NA != p.NA || d.NB != p.NB || d.N3D != p.N3D || len(d.Data) != p.Nqz*p.Nw*p.NA*(p.NB+1)*p.N3D*p.N3D {
			t.Fatalf("accepted Π> of shape %d×%d×%d×%d×%d² (%d elements) for the grid %+v", d.Nqz, d.Nw, d.NA, d.NB+1, d.N3D, len(d.Data), p)
		}
		seedOf(ck)
		if ck.EGrid != nil {
			ck.EGrid.Grid()
		}
	})
}

// TestRunStorageOwnedByRun: the storage a Born run rewrites every
// iteration belongs to that run, not to the Simulator. After a second,
// different run on the same Simulator, the first run's Result tensors and
// a checkpoint of them are bitwise what they were, under either mixer.
func TestRunStorageOwnedByRun(t *testing.T) {
	for _, mixer := range []MixerKind{Linear, Anderson} {
		opts := DefaultOptions()
		opts.MaxIter, opts.Tol, opts.Mixer = 4, 0, mixer
		s := miniSim(t, opts)
		first, err := s.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tensors := func() [][]complex128 {
			return [][]complex128{first.GLess.Data, first.GGtr.Data, first.DLess.Data, first.DGtr.Data,
				first.SigmaLess.Data, first.SigmaGtr.Data, first.PiLess.Data, first.PiGtr.Data}
		}
		var before [][]complex128
		for _, d := range tensors() {
			before = append(before, append([]complex128(nil), d...))
		}
		save := func() []byte {
			var buf bytes.Buffer
			if err := CheckpointOf(device.WrapParams(s.Dev.P), first).Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		ck := save()

		s.Opts.Mixing, s.Opts.MaxIter = 0.5, 5
		second, err := s.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if second.SigmaLess.MaxAbsDiff(first.SigmaLess) == 0 || second.GLess.MaxAbsDiff(first.GLess) == 0 {
			t.Fatalf("mixer %d: the second run reproduced the first; it shows nothing", mixer)
		}
		for i, d := range tensors() {
			sameBits(t, fmt.Sprintf("mixer %d: first run's tensor %d", mixer, i), before[i], d)
		}
		if !bytes.Equal(ck, save()) {
			t.Fatalf("mixer %d: a checkpoint of the first run changed after the second run", mixer)
		}
	}
}
