package main

import (
	"fmt"
	"io"
	"math"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/perfmodel"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// A claim is one published series of the paper: its numbers at the
// artefact's points and the model that should reproduce them.
type claim struct {
	name  string
	paper []float64 // the published numbers, one per point
	prec  int       // decimals printed for paper and model
	tol   float64   // largest |deviation| in percent still reproduced
	miss  string    // status and reason when a point misses tol
	model func(i int) float64
}

// An artefact is one table or figure of the paper's evaluation.
type artefact struct {
	points []string // labels of the points of the multi-point claims
	claims []claim
	footer func() (string, error)
}

var (
	nkzs      = []int{3, 5, 7, 9, 11}
	nkzPoints = labels(len(nkzs), func(i int) string { return fmt.Sprintf("Nkz=%d", nkzs[i]) })
	t5Procs   = []int{224, 448, 896, 1792, 2688}
	t8        = perfmodel.PaperTable8Configs
)

// ledger is the paper's §5 as data: every published number of Tables 3, 4,
// 5 and 8 and Fig. 13, next to the model evaluated at the paper's scale.
var ledger = map[string]artefact{
	"table3": {points: nkzPoints, footer: measuredSigma, claims: []claim{
		{"Contour integral Pflop", []float64{8.45, 14.12, 19.77, 25.42, 31.06}, 2, 2, "", load(perfmodel.ContourFlops)},
		{"RGF Pflop", []float64{52.95, 88.25, 123.55, 158.85, 194.15}, 2, 2, "", load(perfmodel.RGFFlops)},
		{"SSE (OMEN) Pflop", []float64{24.41, 67.80, 132.89, 219.67, 328.15}, 2, 2, "", load(sse.SigmaFlopsOMEN)},
		{"SSE (DaCe) Pflop", []float64{12.38, 34.19, 66.85, 110.36, 164.71}, 2, 2, "", load(sse.SigmaFlopsDaCe)},
	}},
	"table4": {points: nkzPoints, claims: []claim{
		{"OMEN TiB", []float64{32.11, 89.18, 174.80, 288.95, 431.65}, 2, 1, "", func(i int) float64 { _, o, _ := comm.Table4Row(nkzs[i]); return o }},
		{"DaCe TiB", []float64{0.54, 1.22, 2.17, 3.38, 4.86}, 2, 1, "", func(i int) float64 { _, _, d := comm.Table4Row(nkzs[i]); return d }},
	}},
	"table5": {points: labels(len(t5Procs), func(i int) string { return fmt.Sprintf("P=%d", t5Procs[i]) }), claims: []claim{
		{"OMEN TiB", []float64{108.24, 117.75, 136.76, 174.80, 212.84}, 2, 1, "", func(i int) float64 { o, _ := comm.Table5Row(t5Procs[i]); return o }},
		{"DaCe TiB", []float64{0.95, 1.13, 1.48, 2.17, 2.87}, 2, 1, "", func(i int) float64 { _, d := comm.Table5Row(t5Procs[i]); return d }},
	}},
	"table8": {points: labels(len(t8), func(i int) string { return fmt.Sprintf("Nkz=%d, %d nodes", t8[i].Nkz, t8[i].Nodes) }), claims: []claim{
		{"GF Pflop", []float64{2922, 3985, 5579, 5579}, 0, 2, "", table8(func(r perfmodel.Table8Row) float64 { return r.GFPflop })},
		{"GF time (s)", []float64{75.84, 75.90, 150.38, 76.09}, 2, 10, "", table8(func(r perfmodel.Table8Row) float64 { return r.GFTime })},
		{"SSE Pflop", []float64{490, 910, 1784, 1784}, 0, 2, "", table8(func(r perfmodel.Table8Row) float64 { return r.SSEPflop })},
		{"SSE time (s)", []float64{95.46, 116.67, 346.56, 175.15}, 2, 10, "", table8(func(r perfmodel.Table8Row) float64 { return r.SSETime })},
		{"Comm time (s)", []float64{44.02, 43.93, 121.91, 122.35}, 2, 10,
			"diverged: one effective bandwidth serves every run; the paper's spread implies topology effects not modelled",
			table8(func(r perfmodel.Table8Row) float64 { return r.CommTime })},
		{"Sustained Pflop/s at Nkz=21, 3525 nodes", []float64{19.71}, 2, 5, "", func(int) float64 {
			p := device.Paper10240(t8[3].Nkz)
			return perfmodel.SustainedPflops(p, perfmodel.Summit.Project(p, t8[3].Nodes, perfmodel.DaCe))
		}},
	}},
	"fig13": {claims: []claim{
		{"Daint strong-scaling efficiency, 112 → 5400 nodes (%)", []float64{74}, 1, 5, "", strong(perfmodel.PizDaint, 112, 5400, func(s perfmodel.ScalingPoint) float64 { return 100 * s.ScalingEfficiency })},
		{"Daint speedup vs OMEN at 5400 nodes (×)", []float64{16.3}, 1, 5, daintTradeoff, strong(perfmodel.PizDaint, 112, 5400, func(s perfmodel.ScalingPoint) float64 { return s.TotalSpeedup })},
		{"Daint comm improvement at 5400 nodes (×)", []float64{417.2}, 1, 5, daintTradeoff, strong(perfmodel.PizDaint, 112, 5400, func(s perfmodel.ScalingPoint) float64 { return s.CommSpeedup })},
		{"Summit speedup vs OMEN at 228 nodes (×)", []float64{24.5}, 1, 5, "", strong(perfmodel.Summit, 19, 228, func(s perfmodel.ScalingPoint) float64 { return s.TotalSpeedup })},
		{"Summit comm improvement at 228 nodes (×)", []float64{79.7}, 1, 5,
			"shape-only: Summit's DaCe comm constant is fitted to Table 8, not to this point",
			strong(perfmodel.Summit, 19, 228, func(s perfmodel.ScalingPoint) float64 { return s.CommSpeedup })},
	}},
}

const daintTradeoff = "shape-only: no one Daint bandwidth pair gives both published ratios; the fit targets the efficiency decay"

func labels(n int, f func(i int) string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// load is a Table 3 column: one kernel's flops per iteration, in Pflop, on
// the 4,864-atom structure.
func load(flops func(device.Params) float64) func(int) float64 {
	return func(i int) float64 { return flops(device.Paper4864(nkzs[i])) / 1e15 }
}

func table8(col func(perfmodel.Table8Row) float64) func(int) float64 {
	return func(i int) float64 { return col(perfmodel.Table8(t8)[i]) }
}

// strong evaluates a Fig. 13 strong-scaling quantity (NA = 4,864, Nkz = 7)
// at the last of nodes, with efficiency relative to the first.
func strong(m perfmodel.Machine, first, last int, f func(perfmodel.ScalingPoint) float64) func(int) float64 {
	return func(int) float64 { return f(perfmodel.StrongScaling(m, device.Paper4864(7), []int{first, last})[1]) }
}

// measuredSigma is Table 3's measured cross-check: the flops cmat.Counter
// counts while the Σ≷ kernels run once on device.Mini().
func measuredSigma() (string, error) {
	dev, err := device.New(device.Mini())
	if err != nil {
		return "", fmt.Errorf("building device.Mini: %w", err)
	}
	p, k := dev.P, sse.NewKernel(dev)
	g := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	d := k.PreprocessD(tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D))
	cmat.Counter.Reset()
	k.SigmaOMEN(g, d)
	omen := cmat.Counter.Reset()
	k.SigmaDaCe(g, d)
	dace := cmat.Counter.Reset()
	return fmt.Sprintf("\nMeasured on `device.Mini()` by `cmat.Counter`: Σ≷ OMEN %d flops, DaCe %d flops, DaCe/OMEN %.2f (the formulas give %.2f at Mini).\n",
		omen, dace, float64(dace)/float64(omen), sse.SigmaFlopsDaCe(p)/sse.SigmaFlopsOMEN(p)), nil
}

// write prints the artefact as a markdown table, one row per published
// number.
func (a artefact) write(w io.Writer) error {
	footer := ""
	if a.footer != nil {
		var err error
		if footer, err = a.footer(); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "| row | paper | model | dev | status |\n|---|--:|--:|--:|---|\n")
	for _, c := range a.claims {
		for i, pub := range c.paper {
			key, m := c.name, c.model(i)
			if len(c.paper) > 1 {
				key += ", " + a.points[i]
			}
			dev := 100 * (m - pub) / pub
			status := fmt.Sprintf("reproduced (±%g%%)", c.tol)
			if math.Abs(dev) > c.tol {
				status = c.miss
				if status == "" {
					status = fmt.Sprintf("diverged: outside ±%g%%", c.tol)
				}
			}
			fmt.Fprintf(w, "| %s | %.*f | %.*f | %+.1f%% | %s |\n", key, c.prec, pub, c.prec, m, dev, status)
		}
	}
	_, err := io.WriteString(w, footer)
	return err
}
