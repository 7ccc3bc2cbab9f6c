package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"negfsim/internal/device"
	"negfsim/internal/egrid"
	"negfsim/internal/tensor"
)

// Checkpointing: extreme-scale NEGF runs are restarted from saved
// self-energies (a converged Σ is by far the most expensive object a run
// produces). A Checkpoint captures everything needed to resume the Born
// loop mid-flight; the encoding is stdlib gob.

// Checkpoint is a restartable snapshot of a self-consistent run.
type Checkpoint struct {
	Params     device.Params
	Iterations int

	// Kind and DevFP pin the device-zoo identity of the structure the
	// self-energies belong to. Checkpoints written before the device zoo
	// decode with DevFP 0, which means "grid-equality only" — exactly the
	// compatibility rule of that era, when the grid WAS the identity.
	Kind  string
	DevFP uint64

	SigmaLess, SigmaGtr *tensor.GTensor
	PiLess, PiGtr       *tensor.DTensor

	// EGrid is the active energy grid the self-energies were converged
	// on: nil (checkpoints from uniform-grid runs, and every checkpoint
	// written before the adaptive subsystem) means the full fine grid.
	// It travels with Σ≷ so an adaptive resume or a campaign warm start
	// continues on the exact grid the saved state belongs to.
	EGrid *egrid.State
}

// CheckpointOf captures the current self-energies of a result.
func CheckpointOf(spec device.SpecConfig, res *Result) *Checkpoint {
	return &Checkpoint{
		Params: spec.Grid(), Kind: spec.Kind(), DevFP: spec.Fingerprint(),
		Iterations: res.Iterations,
		SigmaLess:  res.SigmaLess, SigmaGtr: res.SigmaGtr,
		PiLess: res.PiLess, PiGtr: res.PiGtr,
		EGrid: res.EGrid,
	}
}

// Save writes the checkpoint.
func (c *Checkpoint) Save(w io.Writer) error {
	if c.SigmaLess == nil || c.PiLess == nil {
		return fmt.Errorf("core: checkpoint has no self-energies (run at least one full iteration)")
	}
	return gob.NewEncoder(w).Encode(c)
}

// SaveFile writes the checkpoint to a gob file atomically (temp file +
// rename), so a crash mid-write never corrupts the previous checkpoint.
func (c *Checkpoint) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save. It rejects one whose
// self-energies are missing or not shaped by its grid, or whose energy grid
// is not that grid's, so a corrupt or hand-made file fails here instead of
// inside the Born loop it would seed.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if err := c.checkShapes(); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return &c, nil
}

// checkShapes reports whether c's tensors and energy grid are the ones its
// grid c.Params describes.
func (c *Checkpoint) checkShapes() error {
	p := c.Params
	for _, g := range []*tensor.GTensor{c.SigmaLess, c.SigmaGtr} {
		if g == nil || g.Nkz != p.Nkz || g.NE != p.NE || g.NA != p.NA || g.Norb != p.Norb ||
			len(g.Data) != volume(p.Nkz, p.NE, p.NA, p.Norb, p.Norb) {
			return fmt.Errorf("Σ≷ missing or not shaped by the grid %+v", p)
		}
	}
	for _, d := range []*tensor.DTensor{c.PiLess, c.PiGtr} {
		if d == nil || d.Nqz != p.Nqz || d.Nw != p.Nw || d.NA != p.NA || d.NB != p.NB || d.N3D != p.N3D ||
			len(d.Data) != volume(p.Nqz, p.Nw, p.NA, p.NB+1, p.N3D, p.N3D) {
			return fmt.Errorf("Π≷ missing or not shaped by the grid %+v", p)
		}
	}
	if g := c.EGrid; g != nil && g.NE != p.NE {
		return fmt.Errorf("energy grid has %d fine points, the grid %d", g.NE, p.NE)
	}
	return nil
}

// volume is the product of dims, or −1 when a dimension is negative or the
// product overflows.
func volume(dims ...int) int {
	n := 1
	for _, d := range dims {
		if d < 0 || d > 0 && n > math.MaxInt/d {
			return -1
		}
		n *= d
	}
	return n
}

// Compatible reports whether the checkpoint can seed a run of spec.
func (c *Checkpoint) Compatible(spec device.SpecConfig) error {
	if p := spec.Grid(); c.Params != p {
		return fmt.Errorf("core: checkpoint grid is %+v, config has %+v", c.Params, p)
	}
	if c.DevFP != 0 && c.DevFP != spec.Fingerprint() {
		return fmt.Errorf("core: checkpoint is for device kind %q (fp %016x), config has kind %q (fp %016x)",
			c.Kind, c.DevFP, spec.Kind(), spec.Fingerprint())
	}
	return nil
}

// CompatibleDevice reports whether the checkpoint can seed a simulator
// holding the already-built device d.
func (c *Checkpoint) CompatibleDevice(d *device.Device) error {
	if c.Params != d.P {
		return fmt.Errorf("core: checkpoint grid is %+v, simulator has %+v", c.Params, d.P)
	}
	if c.DevFP != 0 && c.DevFP != d.Fingerprint() {
		return fmt.Errorf("core: checkpoint is for device kind %q (fp %016x), simulator has kind %q (fp %016x)",
			c.Kind, c.DevFP, d.Kind, d.Fingerprint())
	}
	return nil
}
