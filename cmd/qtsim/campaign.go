package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"negfsim/internal/campaign"
	"negfsim/internal/serve"
)

// chains is the -campaign mode's parallelism: the ladder runs as up to
// this many chains of points side by side, each on its own scheduler slot.
const chains = 4

// runCampaign is the -campaign offline mode: load a campaign request,
// execute its bias ladder on an in-process scheduler — the worker role's
// path, each later point of a chain warm-started from its predecessor by
// default — print a per-point summary, and emit the artifacts — PREFIX.csv
// and PREFIX.json when -campaign-out is set, the CSV to stdout otherwise.
func runCampaign(path, out string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req, err := campaign.DecodeRequest(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("parsing campaign request %s: %w", path, err)
	}

	sched := serve.New(serve.Config{MaxConcurrent: chains})
	defer sched.Close(context.Background())
	mgr := campaign.NewManager(campaign.ServeBackend{S: sched}, chains)
	c, err := mgr.Start(req)
	if err != nil {
		return err
	}
	ladder := req.Ladder()
	fmt.Printf("campaign: %s over %d bias points (warm chaining: %v), device kind %s\n",
		req.Kind, len(ladder), req.Warm(), req.Config.Device.Kind())

	state, _ := c.Wait(context.Background())
	st := c.Status()
	for i, p := range st.Points {
		switch p.State {
		case campaign.PointDone:
			warm := ""
			if p.WarmStarted {
				warm = "  (warm)"
			}
			fmt.Printf("  point %d: bias %+.4f  I_L %+.6e  I_R %+.6e  %d iterations%s\n",
				i, p.Bias, p.CurrentL, p.CurrentR, p.Iterations, warm)
		default:
			fmt.Printf("  point %d: bias %+.4f  %s  %s\n", i, p.Bias, p.State, p.Error)
		}
	}
	if state != campaign.StateSucceeded {
		return fmt.Errorf("campaign %s: %s", state, st.Error)
	}

	csv, err := c.CSV()
	if err != nil {
		return err
	}
	if out == "" {
		fmt.Println()
		os.Stdout.Write(csv)
	} else {
		js, err := c.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out+".csv", csv, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(out+".json", js, 0o644); err != nil {
			return err
		}
		fmt.Printf("artifacts written to %s.csv and %s.json\n", out, out)
	}
	return mgr.Close(context.Background())
}
