package core

import (
	"strings"
	"testing"
)

func TestAdaptSpecValidate(t *testing.T) {
	check := func(mut func(*RunConfig), frag string) {
		t.Helper()
		c := DefaultRunConfig()
		mut(&c)
		err := c.Validate()
		if frag == "" {
			if err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
			return
		}
		if err == nil {
			t.Errorf("invalid config accepted (want error mentioning %q)", frag)
		} else if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name the JSON path %q", err, frag)
		}
	}
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid"} }, "")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "GRID+SIGMA"} }, "")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "off"} }, "")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "bisect"} }, "adapt.mode")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", TolCurrent: -1e-6} }, "adapt.tol_current")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", MinNE: 1} }, "adapt.min_ne")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", MinNE: -3} }, "adapt.min_ne")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", MaxNE: -1} }, "adapt.max_ne")
	// Bounds are checked against the device's fine grid (default NE=16).
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", MinNE: 17} }, "adapt.min_ne")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", MaxNE: 17} }, "adapt.max_ne")
	check(func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", MinNE: 12, MaxNE: 8} }, "adapt.min_ne")
	// The Gummel loop wraps the adaptive rounds: adapt × gate is accepted.
	check(func(c *RunConfig) {
		g := DefaultGate(0.2, 0)
		c.Gate = &g
		c.Adapt = &AdaptSpec{Mode: "grid"}
	}, "")
	// An "off" block composes with anything.
	check(func(c *RunConfig) {
		g := DefaultGate(0.2, 0)
		c.Gate = &g
		c.Adapt = &AdaptSpec{Mode: "off"}
	}, "")
}

// Strict parsing: typos inside the adapt block fail at parse time, like
// everywhere else in the schema.
func TestParseRejectsUnknownAdaptFields(t *testing.T) {
	base := `{"device": {"kind": "nanowire", "nkz": 3, "nqz": 3, "ne": 16, "nw": 4,
		"na": 24, "nb": 4, "norb": 2, "n3d": 3, "rows": 4, "bnum": 3,
		"emin": -1, "emax": 1, "seed": 7},
		"variant": "dace", "max_iter": 6, "tol": 1e-4, "mixing": 0.5,
		"bias": 0.4, "kt": 0.025, "adapt": %s}`
	for _, tc := range []struct {
		name, adapt string
		ok          bool
	}{
		{"well-formed", `{"mode": "grid+sigma", "tol_current": 1e-6, "max_ne": 12, "min_ne": 4}`, true},
		{"typo tolcurrent", `{"mode": "grid", "tolcurrent": 1e-6}`, false},
		{"typo tolerance", `{"mode": "grid", "tolerance": 1e-6}`, false},
		{"unknown rounds", `{"mode": "grid", "rounds": 3}`, false},
		{"bad mode", `{"mode": "newton"}`, false},
	} {
		_, err := ParseRunConfig([]byte(strings.Replace(base, "%s", tc.adapt, 1)))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// Canonical folds an off/empty adapt block away (so "adapt": {"mode":
// "off"} and no block share a cache key) and fills the tolerance default
// on enabled blocks.
func TestAdaptSpecCanonical(t *testing.T) {
	c := DefaultRunConfig()
	if c.Canonical().Adapt != nil {
		t.Fatal("no adapt block must canonicalize to nil")
	}
	c.Adapt = &AdaptSpec{Mode: "off"}
	if c.Canonical().Adapt != nil {
		t.Fatal(`mode "off" must fold away`)
	}
	c.Adapt = &AdaptSpec{Mode: "OFF", TolCurrent: 1e-3}
	if c.Canonical().Adapt != nil {
		t.Fatal(`mode "OFF" (any case, any knobs) must fold away`)
	}
	c.Adapt = &AdaptSpec{}
	if c.Canonical().Adapt != nil {
		t.Fatal("empty-mode block must fold away")
	}
	c.Adapt = &AdaptSpec{Mode: "Grid+Sigma"}
	got := c.Canonical().Adapt
	if got == nil || got.Mode != "grid+sigma" || got.TolCurrent != 1e-6 {
		t.Fatalf("enabled block not normalized: %+v", got)
	}
	// The original config is untouched (Canonical copies).
	if c.Adapt.Mode != "Grid+Sigma" || c.Adapt.TolCurrent != 0 {
		t.Fatalf("Canonical mutated the receiver's adapt block: %+v", c.Adapt)
	}
}

func TestAdaptConfigResolver(t *testing.T) {
	c := DefaultRunConfig()
	if _, ok := c.AdaptConfig(); ok {
		t.Fatal("config without adapt block resolved an AdaptConfig")
	}
	c.Adapt = &AdaptSpec{Mode: "off"}
	if _, ok := c.AdaptConfig(); ok {
		t.Fatal(`mode "off" resolved an AdaptConfig`)
	}
	c.Adapt = &AdaptSpec{Mode: "grid", TolCurrent: 1e-5, MinNE: 4, MaxNE: 12}
	ac, ok := c.AdaptConfig()
	if !ok {
		t.Fatal("enabled block did not resolve")
	}
	if ac.SigmaReuse || ac.Tol != 1e-5 || ac.MinNE != 4 || ac.MaxNE != 12 {
		t.Fatalf("AdaptConfig = %+v", ac)
	}
	c.Adapt.Mode = "grid+sigma"
	if ac, _ := c.AdaptConfig(); !ac.SigmaReuse {
		t.Fatal(`"grid+sigma" must set SigmaReuse`)
	}
}
