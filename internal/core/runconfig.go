package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"negfsim/internal/device"
	"negfsim/internal/sse"
)

// RunConfig is the one versioned description of a simulation run, shared by
// every frontend: cmd/qtsim reads it from -config (no flag overrides a
// field), and cmd/qtsimd accepts it as the body of a job submission, as a
// worker or as the front. It is the single way to say "run this device
// under these solver settings", so a config that produced a result locally
// can be POSTed to the service unchanged.
//
// The schema is flat JSON with snake_case keys (see examples/run.json).
// Unknown fields are rejected, so typos fail at parse time instead of
// silently running defaults.
type RunConfig struct {
	// Version is the config schema version; this build writes and accepts
	// RunConfigVersion. Zero means "current" so hand-written configs may
	// omit it, but persisted configs always carry it explicitly.
	Version int `json:"version"`

	// Device is the structure to simulate: a tagged device-zoo spec
	// ({"kind": "nanowire"|"cnt"|"chain"|"gnr", ...}). The legacy flat
	// Params object (version 1, no "kind" key) is accepted as a nanowire.
	Device device.SpecConfig `json:"device"`

	// Variant selects the SSE kernel: "reference", "omen" or "dace".
	Variant string `json:"variant"`
	// MaxIter bounds the Born iteration count.
	MaxIter int `json:"max_iter"`
	// Tol is the convergence threshold on the relative change of G^≷.
	Tol float64 `json:"tol"`
	// Mixing is the self-energy mixing factor in (0, 1].
	Mixing float64 `json:"mixing"`
	// Mixer selects the update rule: "linear" (default) or "anderson".
	Mixer string `json:"mixer,omitempty"`
	// AndersonHistory is the Anderson mixer's history depth (0 = default).
	AndersonHistory int `json:"anderson_history,omitempty"`
	// Bias is the source-drain bias MuL−MuR in eV (split symmetrically).
	Bias float64 `json:"bias"`
	// KT is the electron thermal energy in eV.
	KT float64 `json:"kt"`
	// Workers bounds the shared-memory parallelism of this run; 0 lets the
	// runner choose (GOMAXPROCS for qtsim, the per-job share for qtsimd).
	Workers int `json:"workers,omitempty"`

	// Dist, when non-empty, runs the SSE phase on a simulated TExTA rank
	// grid ("2x2") with fault tolerance.
	Dist string `json:"dist,omitempty"`
	// Space, when ≥ 2, partitions every electron retarded solve of the GF
	// phase across a spatial cluster of that many ranks — the
	// device-dimension split. Requires Bnum ≥ 2·Space−1. Composes with
	// Dist (each axis gets its own cluster), Gate and Adapt.
	Space int `json:"space,omitempty"`
	// CommTimeoutMs bounds every Send/Recv of the simulated cluster in
	// milliseconds; 0 keeps comm.DefaultTimeout.
	CommTimeoutMs int `json:"comm_timeout_ms,omitempty"`

	// Gate, when non-nil, wraps the run — under any placement and grid
	// policy — in the coupled NEGF–Poisson (Gummel) loop.
	Gate *GateSpec `json:"gate,omitempty"`

	// Adapt, when non-nil with a mode other than "off", runs the run
	// under the adaptive energy-grid refinement loop (internal/egrid).
	Adapt *AdaptSpec `json:"adapt,omitempty"`
}

// AdaptSpec is the RunConfig "adapt" block: the error-controlled
// energy-grid refinement settings. The zero value of every optional
// field keeps the documented default.
type AdaptSpec struct {
	// Mode selects the refinement strategy: "off" (uniform grid, same
	// as omitting the block), "grid" (refine the point set, cold Born
	// restart each round) or "grid+sigma" (refine and chain the
	// converged Σ≷/Π≷ into the next round, seeding new points from
	// interpolated self-energies).
	Mode string `json:"mode"`
	// TolCurrent is the tolerance on the integrated current driving
	// refinement; 0 means 1e-6.
	TolCurrent float64 `json:"tol_current,omitempty"`
	// MaxNE caps the active point count (0: the full device.ne grid).
	MaxNE int `json:"max_ne,omitempty"`
	// MinNE is the seed-grid size and the coarsening floor (0: ~ne/8,
	// at least 9).
	MinNE int `json:"min_ne,omitempty"`
}

// enabled reports whether the spec actually requests adaptation.
func (a *AdaptSpec) enabled() bool {
	if a == nil {
		return false
	}
	m := strings.ToLower(a.Mode)
	return m != "" && m != "off"
}

// AdaptEnabled reports whether the config requests adaptive energy-grid
// refinement.
func (c *RunConfig) AdaptEnabled() bool { return c.Adapt.enabled() }

// CheckSeed reports whether ck can seed a run of this document: it must be
// of the document's device and, unless the run adapts its grid, carry a
// full energy grid — Σ≷ at a partial grid's interpolated energies never
// went through an RGF solve, so only a run whose controller resumes from
// that active set may take it. A nil checkpoint seeds anything. Placement
// and outer loop never matter: this is the whole seed policy, applied by
// Execute and serve.SubmitFrom.
func (c *RunConfig) CheckSeed(ck *Checkpoint) error {
	if ck == nil {
		return nil
	}
	if err := ck.Compatible(c.Device); err != nil {
		return err
	}
	if g := ck.EGrid; g != nil && !g.IsFull() && !c.AdaptEnabled() {
		return fmt.Errorf("core: checkpoint grid has %d of %d energy points active; a non-adaptive run needs a full-grid (or pre-adaptive) checkpoint",
			len(g.Active), g.NE)
	}
	return nil
}

// AdaptConfig translates the config's adapt block into the adaptive
// runner's configuration; false when the config does not request
// adaptation. Resume and Dist are left for the dispatching frontend.
func (c *RunConfig) AdaptConfig() (AdaptConfig, bool) {
	if !c.Adapt.enabled() {
		return AdaptConfig{}, false
	}
	return AdaptConfig{
		SigmaReuse: strings.ToLower(c.Adapt.Mode) == "grid+sigma",
		Tol:        c.Adapt.TolCurrent,
		MinNE:      c.Adapt.MinNE,
		MaxNE:      c.Adapt.MaxNE,
	}, true
}

// RunConfigVersion is the RunConfig schema version this build writes:
// version 2, whose "device" section is the tagged polymorphic spec.
const RunConfigVersion = 2

// RunConfigLegacyVersion is the oldest schema version this build still
// accepts: version 1, whose "device" section was the flat nanowire Params
// object (decoded as kind "nanowire").
const RunConfigLegacyVersion = 1

// VersionSupported reports whether this build accepts config version v
// (0 means "current" and is normalized before this check).
func VersionSupported(v int) bool {
	return v == RunConfigVersion || v == RunConfigLegacyVersion
}

// DefaultRunConfig returns the laptop-scale baseline configuration — the
// run qtsim performs without -config (examples/run.json spells it out).
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Version: RunConfigVersion,
		Device: device.WrapParams(device.Params{
			Nkz: 3, Nqz: 3, NE: 16, Nw: 4,
			NA: 24, NB: 4, Norb: 2, N3D: 3,
			Rows: 4, Bnum: 3,
			Emin: -1, Emax: 1, Seed: 7,
		}),
		Variant: "dace",
		MaxIter: 6,
		Tol:     1e-4,
		Mixing:  0.5,
		Bias:    0.4,
		KT:      0.025,
	}
}

// ParseRunConfig decodes a RunConfig from JSON. Decoding is strict (unknown
// fields, and anything but whitespace after the one document, are errors),
// a missing version is normalized to the current one, and the result is
// validated.
func ParseRunConfig(data []byte) (*RunConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c RunConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("core: parsing run config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("core: parsing run config: trailing content after the JSON document")
	}
	if c.Version == 0 {
		c.Version = RunConfigVersion
	}
	if !VersionSupported(c.Version) {
		return nil, fmt.Errorf("core: run config version %d not supported (this build speaks version %d and still accepts %d)",
			c.Version, RunConfigVersion, RunConfigLegacyVersion)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadRunConfig reads and parses a RunConfig file.
func LoadRunConfig(path string) (*RunConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading run config: %w", err)
	}
	c, err := ParseRunConfig(data)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return c, nil
}

// Marshal renders the config as indented JSON (the format LoadRunConfig
// reads back and the golden file in examples/ pins).
func (c *RunConfig) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Validate checks the config: device parameters, solver ranges, variant and
// mixer names, and the distributed grid shape.
func (c *RunConfig) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if _, err := c.SSEVariant(); err != nil {
		return err
	}
	if _, err := c.mixerKind(); err != nil {
		return err
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("core: run config: max_iter must be positive, got %d", c.MaxIter)
	}
	if c.Tol <= 0 {
		return fmt.Errorf("core: run config: tol must be positive, got %g", c.Tol)
	}
	if c.Mixing <= 0 || c.Mixing > 1 {
		return fmt.Errorf("core: run config: mixing %g outside (0, 1]", c.Mixing)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: run config: workers must be non-negative, got %d", c.Workers)
	}
	if c.CommTimeoutMs < 0 {
		return fmt.Errorf("core: run config: comm_timeout_ms must be non-negative, got %d", c.CommTimeoutMs)
	}
	if c.Dist != "" {
		te, ta, err := c.DistGrid()
		if err != nil {
			return err
		}
		if procs := te * ta; c.Device.Grid().NE < procs {
			return fmt.Errorf("core: run config: dist: device.ne=%d energies cannot feed %d ranks", c.Device.Grid().NE, procs)
		}
	}
	if c.Space < 0 {
		return fmt.Errorf("core: run config: space must be non-negative, got %d", c.Space)
	}
	if c.Space >= 2 {
		if bnum := c.Device.Grid().Bnum; bnum < 2*c.Space-1 {
			return fmt.Errorf("core: run config: space: device.bnum=%d blocks cannot be partitioned across space=%d spatial ranks (need bnum ≥ %d)",
				bnum, c.Space, 2*c.Space-1)
		}
	}
	if c.Gate != nil {
		if c.Gate.MaxOuter <= 0 {
			return fmt.Errorf("core: run config: gate.max_outer must be positive, got %d", c.Gate.MaxOuter)
		}
		if c.Gate.Damping <= 0 || c.Gate.Damping > 1 {
			return fmt.Errorf("core: run config: gate.damping %g outside (0, 1]", c.Gate.Damping)
		}
	}
	if c.Adapt != nil {
		switch strings.ToLower(c.Adapt.Mode) {
		case "", "off", "grid", "grid+sigma":
		default:
			return fmt.Errorf("core: run config: adapt.mode %q unknown (want off, grid or grid+sigma)", c.Adapt.Mode)
		}
		if c.Adapt.TolCurrent < 0 {
			return fmt.Errorf("core: run config: adapt.tol_current must be non-negative, got %g", c.Adapt.TolCurrent)
		}
		ne := c.Device.Grid().NE
		if c.Adapt.MinNE < 0 || c.Adapt.MinNE == 1 || c.Adapt.MinNE > ne {
			return fmt.Errorf("core: run config: adapt.min_ne %d outside {0} ∪ [2, device.ne=%d]", c.Adapt.MinNE, ne)
		}
		if c.Adapt.MaxNE < 0 || c.Adapt.MaxNE > ne {
			return fmt.Errorf("core: run config: adapt.max_ne %d outside [0, device.ne=%d]", c.Adapt.MaxNE, ne)
		}
		if c.Adapt.MinNE > 0 && c.Adapt.MaxNE > 0 && c.Adapt.MinNE > c.Adapt.MaxNE {
			return fmt.Errorf("core: run config: adapt.min_ne %d exceeds adapt.max_ne %d", c.Adapt.MinNE, c.Adapt.MaxNE)
		}
	}
	return nil
}

// Canonical returns the config reduced to its semantic content: the form in
// which two configs describing the same physics compare (and hash) equal.
// Defaults are filled explicitly (version, variant "dace", mixer "linear",
// the Anderson history depth), enum names are lower-cased, and the knobs
// that change how a run executes but not what it computes — Workers and
// CommTimeoutMs — are zeroed. Dist and Gate stay: a distributed or
// Poisson-coupled run is a different computation. The front tier's
// content-addressed cache keys on exactly this form, so a submission with
// reordered JSON fields, an omitted default, or a different worker count
// dedupes onto the same cached result. The receiver is copied; the Gate
// pointer (never mutated here) is shared.
func (c RunConfig) Canonical() RunConfig {
	c.Version = RunConfigVersion
	c.Device = c.Device.Canonical()
	c.Variant = strings.ToLower(c.Variant)
	if c.Variant == "" {
		c.Variant = "dace"
	}
	c.Mixer = strings.ToLower(c.Mixer)
	if c.Mixer == "" {
		c.Mixer = "linear"
	}
	if c.Mixer != "anderson" {
		c.AndersonHistory = 0
	} else if c.AndersonHistory <= 0 {
		c.AndersonHistory = 3
	}
	c.Workers = 0
	c.CommTimeoutMs = 0
	// A sub-2 Space is the local solver; ≥ 2 changes the computation
	// (partitioned solve) and stays, like Dist.
	if c.Space < 2 {
		c.Space = 0
	}
	// An "off" (or empty-mode) adapt block is the uniform grid — the
	// same computation as no block at all, so it folds away and the two
	// spellings share a cache key. An enabled block is normalized: mode
	// lower-cased, the tolerance default filled.
	if c.Adapt != nil {
		if !c.Adapt.enabled() {
			c.Adapt = nil
		} else {
			a := *c.Adapt
			a.Mode = strings.ToLower(a.Mode)
			if a.TolCurrent <= 0 {
				a.TolCurrent = 1e-6
			}
			c.Adapt = &a
		}
	}
	return c
}

// SSEVariant parses the config's variant name.
func (c *RunConfig) SSEVariant() (sse.Variant, error) {
	switch strings.ToLower(c.Variant) {
	case "reference":
		return sse.Reference, nil
	case "omen":
		return sse.OMEN, nil
	case "", "dace":
		return sse.DaCe, nil
	}
	return 0, fmt.Errorf("core: run config: unknown variant %q (want reference, omen or dace)", c.Variant)
}

// mixerKind parses the config's mixer name.
func (c *RunConfig) mixerKind() (MixerKind, error) {
	switch strings.ToLower(c.Mixer) {
	case "", "linear":
		return Linear, nil
	case "anderson":
		return Anderson, nil
	}
	return 0, fmt.Errorf("core: run config: unknown mixer %q (want linear or anderson)", c.Mixer)
}

// MixerOverridden reports whether the run will mix linearly although the
// config asks for another mixer: clustered placements (dist and/or space)
// currently ignore "mixer" — see DistConfig.mixesLinearly for why the
// defect is kept. Frontends log it so the drift is visible per run.
func (c *RunConfig) MixerOverridden() bool {
	kind, kerr := c.mixerKind()
	pl, _, derr := c.DistConfig()
	return kerr == nil && derr == nil && kind != Linear && pl.mixesLinearly()
}

// DistGrid parses the "TExTA" distributed grid spec; (0, 0) when the config
// does not request a distributed run.
func (c *RunConfig) DistGrid() (te, ta int, err error) {
	if c.Dist == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(c.Dist, "%dx%d", &te, &ta); err != nil || te < 1 || ta < 1 {
		return 0, 0, fmt.Errorf("core: run config: dist must look like TExTA (e.g. 2x2), got %q", c.Dist)
	}
	return te, ta, nil
}

// Options translates the config into solver Options. The config is assumed
// validated; defaults fill the fields RunConfig does not cover (broadening,
// phonon contact temperatures).
func (c *RunConfig) Options() (Options, error) {
	variant, err := c.SSEVariant()
	if err != nil {
		return Options{}, err
	}
	mixer, err := c.mixerKind()
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	opts.Variant = variant
	opts.MaxIter = c.MaxIter
	opts.Tol = c.Tol
	opts.Mixing = c.Mixing
	opts.Mixer = mixer
	opts.AndersonHistory = c.AndersonHistory
	opts.Contacts.MuL = c.Bias / 2
	opts.Contacts.MuR = -c.Bias / 2
	opts.Contacts.KT = c.KT
	opts.Workers = c.Workers
	return opts, nil
}

// DistConfig translates the config's distributed section (the Dist grid
// and/or the Space split) into the Born loop's placement, and reports
// whether that placement uses a cluster (false: the config requests neither
// axis and the run is serial).
func (c *RunConfig) DistConfig() (DistConfig, bool, error) {
	te, ta, err := c.DistGrid()
	if err != nil {
		return DistConfig{}, false, err
	}
	pl := DistConfig{TE: te, TA: ta, Space: c.Space, CommTimeout: time.Duration(c.CommTimeoutMs) * time.Millisecond}
	return pl, pl.clustered(), nil
}

// NewSimulator builds the device and simulator the config describes.
func (c *RunConfig) NewSimulator() (*Simulator, error) {
	opts, err := c.Options()
	if err != nil {
		return nil, err
	}
	return c.NewSimulatorWith(opts)
}

// NewSimulatorWith builds the configured device and a simulator over it
// using caller-prepared options — for frontends that decorate the config's
// Options (iteration hooks, per-job worker budgets) before construction.
func (c *RunConfig) NewSimulatorWith(opts Options) (*Simulator, error) {
	dev, err := c.Device.Build()
	if err != nil {
		return nil, err
	}
	return New(dev, opts), nil
}
