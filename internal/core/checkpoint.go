package core

import (
	"encoding/gob"
	"fmt"
	"io"
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

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return &c, nil
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
