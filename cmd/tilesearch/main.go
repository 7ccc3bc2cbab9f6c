// Command tilesearch runs the exhaustive decomposition search of §4.1:
// over all feasible (TE, TA) factorizations of the process count, it finds
// the tiling that minimizes SSE communication volume, optionally under a
// per-process memory limit. The printed optimum is what qtsim takes as
// -dist TExTA.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tilesearch: ")
	nkz := flag.Int("nkz", 7, "momentum points")
	na := flag.Int("na", 4864, "atoms (4864 or 10240 presets)")
	procs := flag.Int("p", 1792, "process count")
	memGiB := flag.Float64("mem", 0, "per-process memory limit in GiB (0 = unlimited)")
	top := flag.Int("top", 8, "show the N best decompositions")
	place := flag.Bool("place", false, "compare the energy-grid and spatial-split axes for -p processes and report the cheaper one")
	flag.Parse()

	var p device.Params
	switch *na {
	case 4864:
		p = device.Paper4864(*nkz)
	case 10240:
		p = device.Paper10240(*nkz)
	default:
		log.Fatalf("presets exist for NA = 4864 and 10240, got %d", *na)
	}

	if *place {
		pl := perfmodel.PlaceSplit(p, *procs)
		fmt.Printf("structure NA=%d, Nkz=%d, NE=%d, Bnum=%d — placing %d processes\n",
			p.NA, p.Nkz, p.NE, p.Bnum, *procs)
		if pl.TE > 0 {
			fmt.Printf("energy grid:   TE=%d × TA=%d, %.3f TiB per iteration\n", pl.TE, pl.TA, comm.TiB(pl.GridBytes))
		} else {
			fmt.Println("energy grid:   infeasible")
		}
		if pl.Space > 0 {
			fmt.Printf("spatial split: %d ranks, %.3f TiB per iteration\n", pl.Space, comm.TiB(pl.SpaceBytes))
		} else {
			fmt.Printf("spatial split: infeasible (Bnum=%d < %d)\n", p.Bnum, 2**procs-1)
		}
		fmt.Printf("placement: %s\n", pl.Mode)
		return
	}

	best, feasible := comm.SearchTiles(p, *procs, *memGiB*(1<<30))
	if len(feasible) == 0 {
		log.Fatal("no feasible decomposition under the given constraints")
	}
	sort.Slice(feasible, func(i, j int) bool { return feasible[i].Bytes < feasible[j].Bytes })

	fmt.Printf("structure NA=%d, Nkz=%d, NE=%d, Nω=%d — %d processes, %d feasible tilings\n",
		p.NA, p.Nkz, p.NE, p.Nw, *procs, len(feasible))
	fmt.Printf("%-8s %-8s %14s %16s\n", "TE", "TA", "volume [TiB]", "mem/proc [GiB]")
	n := *top
	if n > len(feasible) {
		n = len(feasible)
	}
	for _, d := range feasible[:n] {
		fmt.Printf("%-8d %-8d %14.3f %16.3f\n",
			d.TE, d.TA, comm.TiB(d.Bytes), comm.PerProcessMemory(p, d.TE, d.TA)/(1<<30))
	}
	fmt.Printf("\noptimum: TE=%d × TA=%d, %.3f TiB total (OMEN scheme: %.2f TiB, %.0f× more)\n",
		best.TE, best.TA, comm.TiB(best.Bytes), comm.TiB(comm.OMENVolume(p, *procs)),
		comm.OMENVolume(p, *procs)/best.Bytes)
}
