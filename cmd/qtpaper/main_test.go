package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const blockEnd = "<!-- /qtpaper -->"

// TestLedgerMatchesExperiments regenerates every artefact block of
// EXPERIMENTS.md and fails on any byte difference, printing the fresh block
// to paste in its place.
func TestLedgerMatchesExperiments(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if n := strings.Count(doc, "\n<!-- qtpaper:"); n != len(ledger) {
		t.Errorf("EXPERIMENTS.md has %d qtpaper blocks, the ledger %d artefacts", n, len(ledger))
	}
	for name := range ledger {
		start := "<!-- qtpaper:" + name + " -->\n"
		i := strings.Index(doc, start)
		if i < 0 {
			t.Errorf("EXPERIMENTS.md has no %q block", strings.TrimSpace(start))
			continue
		}
		body := doc[i+len(start):]
		j := strings.Index(body, blockEnd)
		if j < 0 {
			t.Errorf("EXPERIMENTS.md block %s has no %s", name, blockEnd)
			continue
		}
		var out, errOut bytes.Buffer
		if code := run([]string{name}, &out, &errOut); code != 0 {
			t.Fatalf("qtpaper %s exited %d: %s", name, code, errOut.String())
		}
		if body[:j] != out.String() {
			// Printed unindented on stdout, so it can be pasted as is.
			t.Errorf("EXPERIMENTS.md block %s differs from `qtpaper %s`; replace it with the block printed below", name, name)
			fmt.Printf("%s%s%s\n", start, out.String(), blockEnd)
		}
	}
}

// TestRunRejectsBadInput pins the exit code and the message of every
// malformed invocation: bad tool input names the flag, usage errors exit 2.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"tiles", "-p", "0"}, 1, "-p must be at least 1"},
		{[]string{"tiles", "-place", "-p", "0"}, 1, "-p must be at least 1"},
		{[]string{"tiles", "-nkz", "0"}, 1, "-nkz must be at least 1"},
		{[]string{"tiles", "-mem", "-1"}, 1, "-mem must be a non-negative"},
		{[]string{"tiles", "-mem", "NaN"}, 1, "-mem must be a non-negative"},
		{[]string{"tiles", "-na", "5000"}, 1, "-na must be one of the presets"},
		{[]string{"tiles", "-mem", "1e-9"}, 1, "no feasible decomposition"},
		{[]string{"tiles", "-top", "3"}, 2, "flag provided but not defined: -top"},
		{[]string{"tiles", "1792"}, 2, `unexpected argument "1792"`},
		{[]string{"table3", "-na", "10240"}, 2, "flag provided but not defined: -na"},
		{[]string{"commvol"}, 2, "usage: qtpaper"},
		{[]string{"all"}, 2, "usage: qtpaper"},
		{nil, 2, "usage: qtpaper"},
	} {
		var stderr bytes.Buffer
		code := run(tc.args, io.Discard, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("qtpaper %q: exit %d, stderr %q; want exit %d and %q",
				tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}

// TestTiles checks that the §4.1 search finds the paper's Table 5
// decomposition for 1,792 processes, and that the placement comparison
// reports both axes.
func TestTiles(t *testing.T) {
	for args, want := range map[string]string{
		"tiles -p 1792":        "optimum: TE=7 × TA=256",
		"tiles -place -p 1792": "placement: energy",
		"tiles -place -p 1":    "spatial split: infeasible",
	} {
		var out bytes.Buffer
		if code := run(strings.Fields(args), &out, io.Discard); code != 0 || !strings.Contains(out.String(), want) {
			t.Errorf("qtpaper %s: exit %d, output %q; want %q", args, code, out.String(), want)
		}
	}
}

// TestSDFGWritesDOT checks that the sdfg tool reports the transformed
// graph and writes both Graphviz renderings.
func TestSDFGWritesDOT(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "sse")
	var out bytes.Buffer
	if code := run([]string{"sdfg", "-dot", prefix}, &out, io.Discard); code != 0 {
		t.Fatalf("qtpaper sdfg exited %d", code)
	}
	if !strings.Contains(out.String(), "=== after redundancy removal") {
		t.Errorf("output lacks the transformed graph:\n%s", out.String())
	}
	for _, suffix := range []string{"_before.dot", "_after.dot"} {
		if b, err := os.ReadFile(prefix + suffix); err != nil || !bytes.HasPrefix(b, []byte("digraph")) {
			t.Errorf("%s%s: %v, content %.20q", prefix, suffix, err, b)
		}
	}
}
