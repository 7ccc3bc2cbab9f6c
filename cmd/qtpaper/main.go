// Command qtpaper is the paper ledger. Each artefact subcommand (table3,
// table4, table5, table8, fig13) prints one table or figure of the paper's
// evaluation (§5) as markdown: the published number, this repository's
// model at paper scale, the relative deviation and whether the row is
// reproduced. EXPERIMENTS.md embeds each output verbatim between
// <!-- qtpaper:NAME --> and <!-- /qtpaper --> markers, and
// TestLedgerMatchesExperiments fails when they drift apart. Two tools
// inspect §4: tiles (the (TE, TA) decomposition search) and sdfg (the Σ≷
// dataflow graph).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/perfmodel"
	"negfsim/internal/sdfg"
)

const usage = `usage: qtpaper <command> [flags]
artefacts (no flags): table3 table4 table5 table8 fig13
tools: tiles [-p N] [-nkz N] [-na 4864|10240] [-mem GiB] [-place]
       sdfg [-dot prefix]
`

// tools maps a tool's name to a constructor that declares its flags on the
// flag set and returns the action to run once they are parsed.
var tools = map[string]func(*flag.FlagSet) func(io.Writer) error{"tiles": tiles, "sdfg": sdfgTool}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the process exit code: 0 on
// success, 1 when the command fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	name := args[0]
	fs := flag.NewFlagSet("qtpaper "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var act func(io.Writer) error
	if a, ok := ledger[name]; ok {
		act = a.write
	} else if t, ok := tools[name]; ok {
		act = t(fs)
	} else {
		fmt.Fprintf(stderr, "qtpaper: unknown command %q\n%s", name, usage)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "qtpaper %s: unexpected argument %q\n", name, fs.Arg(0))
		return 2
	}
	if err := act(stdout); err != nil {
		fmt.Fprintf(stderr, "qtpaper %s: %v\n", name, err)
		return 1
	}
	return 0
}

// tiles runs the exhaustive decomposition search of §4.1: over every
// feasible (TE, TA) factorisation of the process count it finds the tiling
// that minimises SSE communication volume, optionally under a per-process
// memory limit. The optimum is what qtsim takes as -dist TExTA.
func tiles(fs *flag.FlagSet) func(io.Writer) error {
	nkz := fs.Int("nkz", 7, "momentum points")
	na := fs.Int("na", 4864, "atoms: the 4864 or 10240 preset")
	procs := fs.Int("p", 1792, "process count")
	memGiB := fs.Float64("mem", 0, "per-process memory limit in GiB (0 = unlimited)")
	place := fs.Bool("place", false, "compare the energy-grid and spatial-split axes for -p processes")
	return func(w io.Writer) error {
		var p device.Params
		switch {
		case *procs < 1:
			return fmt.Errorf("-p must be at least 1, got %d", *procs)
		case *nkz < 1:
			return fmt.Errorf("-nkz must be at least 1, got %d", *nkz)
		case !(*memGiB >= 0):
			return fmt.Errorf("-mem must be a non-negative GiB count, got %g", *memGiB)
		case *na == 4864:
			p = device.Paper4864(*nkz)
		case *na == 10240:
			p = device.Paper10240(*nkz)
		default:
			return fmt.Errorf("-na must be one of the presets 4864 and 10240, got %d", *na)
		}
		if *place {
			pl := perfmodel.PlaceSplit(p, *procs)
			fmt.Fprintf(w, "structure NA=%d, Nkz=%d, NE=%d, Bnum=%d — placing %d processes\n", p.NA, p.Nkz, p.NE, p.Bnum, *procs)
			if pl.TE > 0 {
				fmt.Fprintf(w, "energy grid:   TE=%d × TA=%d, %.3f TiB per iteration\n", pl.TE, pl.TA, comm.TiB(pl.GridBytes))
			} else {
				fmt.Fprintln(w, "energy grid:   infeasible")
			}
			if pl.Space > 0 {
				fmt.Fprintf(w, "spatial split: %d ranks, %.3f TiB per iteration\n", pl.Space, comm.TiB(pl.SpaceBytes))
			} else {
				fmt.Fprintf(w, "spatial split: infeasible (needs P ≥ 2 and Bnum ≥ 2P−1; Bnum=%d)\n", p.Bnum)
			}
			fmt.Fprintf(w, "placement: %s\n", pl.Mode)
			return nil
		}
		best, feasible := comm.SearchTiles(p, *procs, *memGiB*(1<<30))
		if len(feasible) == 0 {
			return errors.New("no feasible decomposition under the given constraints")
		}
		sort.Slice(feasible, func(i, j int) bool { return feasible[i].Bytes < feasible[j].Bytes })
		fmt.Fprintf(w, "structure NA=%d, Nkz=%d, NE=%d, Nω=%d — %d processes, %d feasible tilings\n",
			p.NA, p.Nkz, p.NE, p.Nw, *procs, len(feasible))
		fmt.Fprintf(w, "%-8s %-8s %14s %16s\n", "TE", "TA", "volume [TiB]", "mem/proc [GiB]")
		for _, d := range feasible[:min(8, len(feasible))] {
			fmt.Fprintf(w, "%-8d %-8d %14.3f %16.3f\n", d.TE, d.TA, comm.TiB(d.Bytes), comm.PerProcessMemory(p, d.TE, d.TA)/(1<<30))
		}
		omen := comm.OMENVolume(p, *procs)
		fmt.Fprintf(w, "\noptimum: TE=%d × TA=%d, %.3f TiB total (OMEN scheme: %.2f TiB, %.0f× more)\n",
			best.TE, best.TA, comm.TiB(best.Bytes), comm.TiB(omen), omen/best.Bytes)
		return nil
	}
}

// sdfgTool prints the SSE Σ≷ computation as a stateful dataflow multigraph
// (nodes, arrays, maps, memlets) and its predicted data movement, before and
// after the §4.2 redundancy-removal and data-layout transformations,
// optionally writing Graphviz renderings of both.
func sdfgTool(fs *flag.FlagSet) func(io.Writer) error {
	dot := fs.String("dot", "", "write DOT files <prefix>_before.dot and <prefix>_after.dot")
	return func(w io.Writer) error {
		env := sdfg.Env{"Nkz": 4, "Nqz": 2, "NE": 8, "Nw": 3, "N3D": 2, "NA": 4, "NB": 2, "no": 2}
		fmt.Fprintln(w, "symbol bindings:", env)
		before, after := sdfg.BuildSSESigma(), sdfg.BuildSSESigma()
		m := after.FindMap("dHG")
		if err := errors.Join(sdfg.AbsorbOffset(after, m, "k", "q", "dHG"),
			sdfg.AbsorbOffset(after, m, "E", "w", "dHG"),
			sdfg.PermuteArray(after, "dHG", []int{3, 4, 2, 0, 1, 5, 6})); err != nil {
			return fmt.Errorf("transforming the Σ graph: %w", err)
		}
		for _, s := range []struct {
			title, suffix string
			p             *sdfg.Program
		}{
			{"before transformation (Fig. 9 state)", "_before", before},
			{"after redundancy removal + data layout (Figs. 10b–c)", "_after", after},
		} {
			fmt.Fprintf(w, "\n=== %s ===\n%s", s.title, s.p.Describe())
			mv, err := s.p.MovementSummary(env)
			if err != nil {
				return fmt.Errorf("movement %s: %w", s.title, err)
			}
			fmt.Fprintln(w, "predicted element accesses:")
			for _, arr := range []string{"G", "dH", "Dpre", "neigh", "dHG", "dHD", "Sigma"} {
				fmt.Fprintf(w, "  %-6s reads %9d   writes %9d\n", arr, mv.Reads[arr], mv.Writes[arr])
			}
			if *dot != "" {
				if err := os.WriteFile(*dot+s.suffix+".dot", []byte(s.p.DOT()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote %s\n", *dot+s.suffix+".dot")
			}
		}
		return nil
	}
}
