package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negfsim/internal/campaign"
	"negfsim/internal/core"
	"negfsim/internal/device"
)

// TestExampleCampaignParses pins examples/campaign.json: the annotated
// example must strictly decode and validate — the doc cannot rot away
// from the schema.
func TestExampleCampaignParses(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	req, err := campaign.DecodeRequest(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("examples/campaign.json does not decode: %v", err)
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("examples/campaign.json does not validate: %v", err)
	}
	if req.Config.Device.Kind() != "cnt" {
		t.Fatalf("example device kind %q, want the cnt showcase", req.Config.Device.Kind())
	}
	if got := len(req.Ladder()); got != 9 {
		t.Fatalf("example ladder has %d points, want 9", got)
	}
}

// TestRunCampaignWritesArtifacts drives the -campaign offline mode end to
// end: a small warm-chained ladder over a chain-junction device, with the
// CSV and JSON artifacts landing at the -campaign-out prefix.
func TestRunCampaignWritesArtifacts(t *testing.T) {
	cfg := core.DefaultRunConfig()
	cfg.Device = device.WrapSpec(device.Chain{
		Cols: 8, Step: 0.2, NE: 10, Nw: 3, NB: 3, Bnum: 4,
	})
	cfg.MaxIter = 30
	cfg.Mixer = "anderson"
	cfg.Mixing = 0.8
	cfg.Tol = 1e-8
	req := campaign.Request{
		Kind:       campaign.IV,
		Config:     cfg,
		BiasStart:  0.2,
		BiasStop:   0.4,
		BiasPoints: 5,
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "iv")
	if err := runCampaign(path, out); err != nil {
		t.Fatal(err)
	}

	csv, err := os.ReadFile(out + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 6 {
		t.Fatalf("artifact CSV has %d lines, want header + 5 rows", len(lines))
	}

	js, err := os.ReadFile(out + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var doc campaign.ArtifactDoc
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kind != campaign.IV || len(doc.IV) != 5 {
		t.Fatalf("artifact doc: kind %s, %d rows", doc.Kind, len(doc.IV))
	}
	for i, row := range doc.IV {
		if !row.Converged {
			t.Errorf("row %d not converged", i)
		}
		// The offline manager runs four chains over the five points:
		// points 0–3 head one each, point 4 continues point 3's.
		if got, want := row.WarmStarted, i == 4; got != want {
			t.Errorf("row %d warm_started = %t, want %t", i, got, want)
		}
	}
}
