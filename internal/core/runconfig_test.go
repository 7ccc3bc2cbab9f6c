package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"negfsim/internal/device"
	"negfsim/internal/egrid"
	"negfsim/internal/sse"
)

// TestRunConfigGoldenRoundTrip pins the config wire format: the checked-in
// examples/run.json (which spells out the optional execution knobs — mixer,
// anderson_history, workers, dist, comm_timeout_ms — so readers can see
// them) must parse to the same canonical run as the built-in default, and
// the marshal/parse round trip must be a fixed point. A failure here means
// the schema changed — bump RunConfigVersion and regenerate the example
// deliberately, never by accident.
func TestRunConfigGoldenRoundTrip(t *testing.T) {
	golden, err := os.ReadFile("../../examples/run.json")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseRunConfig(golden)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultRunConfig()
	if parsed.Canonical() != def.Canonical() {
		t.Fatalf("examples/run.json is not the canonical default run:\n got %+v\nwant %+v", parsed.Canonical(), def.Canonical())
	}
	// The marshalled default parses back to itself.
	out, err := def.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRunConfig(out)
	if err != nil {
		t.Fatal(err)
	}
	if *back != def {
		t.Fatalf("default did not survive the round trip:\n got %+v\nwant %+v", *back, def)
	}
	// And marshalling the parsed golden is a fixed point: one more
	// parse/marshal cycle changes nothing.
	once, err := parsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := ParseRunConfig(once)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := reparsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(twice) != string(once) {
		t.Fatalf("marshal is not a fixed point:\n--- first\n%s\n--- second\n%s", once, twice)
	}
}

func TestParseRunConfigRejectsUnknownFieldsAndVersions(t *testing.T) {
	if _, err := ParseRunConfig([]byte(`{"version": 1, "variannt": "dace"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseRunConfig([]byte(`{"version": 99}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestParseRunConfigNormalizesMissingVersion(t *testing.T) {
	def := DefaultRunConfig()
	def.Version = 0
	raw, err := def.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseRunConfig(raw)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != RunConfigVersion {
		t.Fatalf("Version = %d, want %d", c.Version, RunConfigVersion)
	}
}

func TestRunConfigValidate(t *testing.T) {
	bad := func(mut func(*RunConfig)) error {
		c := DefaultRunConfig()
		mut(&c)
		return c.Validate()
	}
	for name, mut := range map[string]func(*RunConfig){
		"zero device": func(c *RunConfig) {
			g := c.Device.Grid()
			g.NA = 0
			c.Device = device.WrapParams(g)
		},
		"bad variant":      func(c *RunConfig) { c.Variant = "cuda" },
		"bad mixer":        func(c *RunConfig) { c.Mixer = "broyden" },
		"zero iters":       func(c *RunConfig) { c.MaxIter = 0 },
		"zero tol":         func(c *RunConfig) { c.Tol = 0 },
		"mixing too big":   func(c *RunConfig) { c.Mixing = 1.5 },
		"bad dist":         func(c *RunConfig) { c.Dist = "2by2" },
		"dist too wide":    func(c *RunConfig) { c.Dist = "8x8" },
		"gate no outer":    func(c *RunConfig) { g := DefaultGate(0.2, 0); g.MaxOuter = 0; c.Gate = &g },
		"negative workers": func(c *RunConfig) { c.Workers = -1 },
	} {
		if err := bad(mut); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", name)
		}
	}
	c := DefaultRunConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Every pair of choices composes: the Gummel loop wraps any placement
	// and grid policy, so no pair is an exclusion rule.
	gate := func(c *RunConfig) { g := DefaultGate(0.2, 0); c.Gate = &g }
	for name, mut := range map[string]func(*RunConfig){
		"dist plus gate":  func(c *RunConfig) { c.Dist = "2x2"; gate(c) },
		"space plus gate": func(c *RunConfig) { c.Space = 2; gate(c) },
		"adapt plus gate": func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid"}; gate(c) },
		"everything": func(c *RunConfig) {
			c.Dist, c.Space, c.Adapt = "2x1", 2, &AdaptSpec{Mode: "grid+sigma"}
			gate(c)
		},
	} {
		if err := bad(mut); err != nil {
			t.Errorf("%s: Validate rejected a composable config: %v", name, err)
		}
	}
}

func TestRunConfigOptionsMapping(t *testing.T) {
	c := DefaultRunConfig()
	c.Variant = "omen"
	c.Mixer = "anderson"
	c.AndersonHistory = 5
	c.Bias = 0.6
	c.KT = 0.03
	c.Workers = 2
	opts, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Variant != sse.OMEN || opts.Mixer != Anderson || opts.AndersonHistory != 5 {
		t.Fatalf("solver selection not mapped: %+v", opts)
	}
	if opts.Contacts.MuL != 0.3 || opts.Contacts.MuR != -0.3 || opts.Contacts.KT != 0.03 {
		t.Fatalf("contacts not mapped: %+v", opts.Contacts)
	}
	if opts.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", opts.Workers)
	}
	// Defaults the config does not cover come from DefaultOptions.
	if opts.Eta != DefaultOptions().Eta {
		t.Fatalf("Eta = %g, want default %g", opts.Eta, DefaultOptions().Eta)
	}
}

func TestRunConfigDistConfig(t *testing.T) {
	c := DefaultRunConfig()
	if _, ok, err := c.DistConfig(); ok || err != nil {
		t.Fatalf("serial config reported a distributed run (ok=%v, err=%v)", ok, err)
	}
	c.Dist = "2x2"
	c.CommTimeoutMs = 1500
	dc, ok, err := c.DistConfig()
	if err != nil || !ok {
		t.Fatalf("DistConfig: ok=%v, err=%v", ok, err)
	}
	if dc.TE != 2 || dc.TA != 2 || dc.CommTimeout != 1500*time.Millisecond {
		t.Fatalf("DistConfig = %+v", dc)
	}
}

// TestRunConfigCheckSeed: a checkpoint of the document's device seeds a
// run under every placement and outer loop — dist, space ≥ 2 and gate
// included — and a partial-grid checkpoint seeds only a run that adapts.
func TestRunConfigCheckSeed(t *testing.T) {
	base := DefaultRunConfig()
	full := &Checkpoint{Params: base.Device.Grid()}
	partial := &Checkpoint{Params: base.Device.Grid(), EGrid: &egrid.State{NE: 16, Emin: -1, Emax: 1, Active: []int{0, 8, 15}}}
	for _, tc := range []struct {
		name        string
		edit        func(c *RunConfig)
		partialSeed bool
	}{
		{"default", func(c *RunConfig) {}, false},
		{"space 1", func(c *RunConfig) { c.Space = 1 }, false},
		{"adapt", func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid"} }, true},
		{"dist", func(c *RunConfig) { c.Dist = "2x1" }, false},
		{"space 2", func(c *RunConfig) { c.Space = 2 }, false},
		{"gate", func(c *RunConfig) { c.Gate = &GateSpec{} }, false},
		{"dist and space", func(c *RunConfig) { c.Dist, c.Space = "2x1", 2 }, false},
		{"adapt and gate", func(c *RunConfig) { c.Adapt, c.Gate = &AdaptSpec{Mode: "grid"}, &GateSpec{} }, true},
	} {
		c := base
		tc.edit(&c)
		if err := c.CheckSeed(nil); err != nil {
			t.Errorf("%s: no seed rejected: %v", tc.name, err)
		}
		if err := c.CheckSeed(full); err != nil {
			t.Errorf("%s: full-grid seed rejected: %v", tc.name, err)
		}
		if err := c.CheckSeed(partial); (err == nil) != tc.partialSeed {
			t.Errorf("%s: partial-grid seed err = %v, want accepted=%t", tc.name, err, tc.partialSeed)
		}
	}
	other := base.Device.Grid()
	other.Seed++
	if err := base.CheckSeed(&Checkpoint{Params: other}); err == nil {
		t.Error("a checkpoint of another device seeded the run")
	}
}

// TestRunConfigRunMatchesHandBuiltRun pins the contract behind config-driven
// frontends: a run assembled through RunConfig must be digit-for-digit the
// run assembled by hand from the same numbers.
func TestRunConfigRunMatchesHandBuiltRun(t *testing.T) {
	c := DefaultRunConfig()
	c.MaxIter = 3
	sim, err := c.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.MaxIter = 3
	opts.Tol = c.Tol
	opts.Mixing = c.Mixing
	opts.Contacts.MuL = c.Bias / 2
	opts.Contacts.MuR = -c.Bias / 2
	opts.Contacts.KT = c.KT
	want, err := miniSim(t, opts).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := want.GLess.MaxAbsDiff(got.GLess); d != 0 {
		t.Fatalf("config-built run diverged from hand-built run: %g", d)
	}
	if got.Obs.CurrentL != want.Obs.CurrentL {
		t.Fatalf("currents differ: %g vs %g", got.Obs.CurrentL, want.Obs.CurrentL)
	}
}

// TestRunConfigBoundsDeviceSize pins the run-size bounds
// (device.MaxBlockDim, device.MaxTensorBytes) at the config surface every
// frontend decodes through: small bodies that ask for unbounded arrays fail
// and name the device field to fix, while every benchmark workload and
// example config still validates.
func TestRunConfigBoundsDeviceSize(t *testing.T) {
	const tail = `"variant":"dace","max_iter":40,"tol":1e-6,"mixing":0.8,"bias":0.2}`
	for _, c := range []struct{ name, device, field string }{
		{"cnt 100000 columns", `{"kind":"cnt","n":100000,"m":0,"cols":100000}`, "device.na"},
		{"cnt 1e9 energies", `{"kind":"cnt","n":7,"m":0,"cols":12,"ne":1000000000}`, "device.ne"},
		{"cnt 1e6 subbands", `{"kind":"cnt","n":7,"m":0,"cols":12,"subbands":1000000}`, "device.bnum"},
		{"nanowire 1e9 kz points", `{"nkz":1000000000,"nqz":1,"ne":16,"nw":4,"na":24,"nb":4,"norb":2,"n3d":3,"bnum":3,"rows":4,"emin":-1,"emax":1}`, "device.nkz"},
		{"nanowire 1e9 qz points", `{"nkz":1,"nqz":1000000000,"ne":16,"nw":4,"na":24,"nb":4,"norb":2,"n3d":3,"bnum":3,"rows":4,"emin":-1,"emax":1}`, "device.nqz"},
		{"nanowire 10000 orbitals", `{"nkz":1,"nqz":1,"ne":16,"nw":4,"na":24,"nb":4,"norb":10000,"n3d":3,"bnum":3,"rows":4,"emin":-1,"emax":1}`, "device.norb"},
		{"chain of 1e6 columns in one block", `{"kind":"chain","cols":1000000,"bnum":1}`, "device.bnum"},
	} {
		body := `{"version":2,"device":` + c.device + `,` + tail
		_, err := ParseRunConfig([]byte(body))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s (%d B): err = %v, want one naming %s", c.name, len(body), err, c.field)
		}
	}

	docs, err := filepath.Glob("../../bench/workloads/*.json")
	if err != nil {
		t.Fatal(err)
	}
	quick, _ := filepath.Glob("../../bench/workloads/quick/*.json")
	examples, _ := filepath.Glob("../../examples/*.json")
	checked := 0
	for _, path := range append(append(docs, quick...), examples...) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if cfg, ok := doc["config"]; ok { // a campaign request wraps its run config
			raw, doc = cfg, nil
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("%s: config: %v", path, err)
			}
		}
		if _, ok := doc["device"]; !ok {
			continue // not a run document (the fleet file)
		}
		if _, err := ParseRunConfig(raw); err != nil {
			t.Errorf("%s no longer validates: %v", path, err)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("checked %d run documents, want the workloads and examples (≥ 8)", checked)
	}
}

// FuzzParseRunConfig feeds arbitrary bodies through the one RunConfig
// decoder every frontend uses: nothing may panic, and an accepted
// document's canonical form is a fixed point — it marshals, re-parses and
// canonicalizes to the same bytes, so the front tier's cache key is stable
// across a worker round trip. Seeds are every checked-in run document,
// with a campaign request's wrapped "config" seeded on its own too, and
// examples/run.json followed by a second document, which must be rejected.
func FuzzParseRunConfig(f *testing.F) {
	var paths []string
	for _, glob := range []string{"../../examples/*.json", "../../bench/workloads/*.json", "../../bench/workloads/quick/*.json"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, m...)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		var doc struct {
			Config json.RawMessage `json:"config"`
		}
		if json.Unmarshal(raw, &doc) == nil && len(doc.Config) > 0 {
			f.Add([]byte(doc.Config))
		}
	}
	run, err := os.ReadFile("../../examples/run.json")
	if err != nil {
		f.Fatal(err)
	}
	trailing := append(run, ` {"ne": 3} garbage`...)
	if _, err := ParseRunConfig(trailing); err == nil {
		f.Fatal("a run document followed by trailing content was accepted")
	}
	f.Add(trailing)
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := ParseRunConfig(body)
		if err != nil {
			return
		}
		can := c.Canonical()
		once, err := can.Marshal()
		if err != nil {
			t.Fatalf("accepted document's canonical form does not marshal: %v", err)
		}
		back, err := ParseRunConfig(once)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, once)
		}
		recan := back.Canonical()
		twice, err := recan.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n---\n%s", once, twice)
		}
	})
}
