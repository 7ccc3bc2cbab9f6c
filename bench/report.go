package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// report is what a run of every workload leaves in a file: where it ran,
// what it was asked, and each workload's result once per set.
type report struct {
	Host struct {
		CPU        string `json:"cpu"`
		NProc      int    `json:"nproc"`
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Workloads map[string][]result `json:"workloads"`
}

func newReport(e env) *report {
	r := &report{Seed: e.seed, Seconds: e.seconds, Trace: e.trace, Workloads: map[string][]result{}}
	r.Host.CPU, r.Host.NProc = cpuModel(), runtime.NumCPU()
	r.Host.Go, r.Host.GOMAXPROCS = runtime.Version(), procs
	return r
}

// set returns the report reduced to its i-th run of every workload.
func (r *report) set(i int) *report {
	out := *r
	out.Workloads = map[string][]result{}
	for name, runs := range r.Workloads {
		if i < len(runs) {
			out.Workloads[name] = runs[i : i+1]
		}
	}
	return &out
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// cpuModel is the first "model name" of /proc/cpuinfo, or the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}

// values collects one metric of one workload over the report's runs.
func (r *report) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Workloads[workload] {
		if v, ok := run.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// The three verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's runs at the base (a) and at the change (b)
// against its bound. The change has regressed when its median is worse than
// the base's by more than the bound. Where either side's own spread is
// wider than the bound the metric is unresolved instead, unless every run
// of one side beats every run of the other. worse is the share of the
// base's median by which the change is worse (negative: better).
func judge(d metricDef, a, b []float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	sign := 1.0 // lower is better: a rise is worse
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / ma
	verdict = verdictOK
	if worse > d.Bound {
		verdict = verdictRegressed
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		disjoint := true // every run of one side on the same side of every run of the other
		for _, x := range a {
			for _, y := range b {
				if (sign*(y-x) > 0) != (worse > 0) {
					disjoint = false
				}
			}
		}
		if !disjoint {
			verdict = verdictUnresolved
		}
	}
	return verdict, worse
}

// compareReports prints, per workload and end-to-end metric, the change's
// median over the base's with the verdict, and reports whether anything
// regressed (or ran incorrectly).
func compareReports(w io.Writer, base, change *report) (regressed bool) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "change", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		for _, side := range []*report{base, change} {
			for _, run := range side.Workloads[wl.Name] {
				if !run.Correct {
					fmt.Fprintf(w, "%-14s ran incorrectly: %d of %d ops failed\n", wl.Name, run.Failed, run.Attempted)
					regressed = true
				}
			}
		}
		for _, d := range endToEnd {
			a, b := base.values(wl.Name, d.Name), change.values(wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing on one side\n", wl.Name, d.Name)
				regressed = true
				continue
			}
			verdict, _ := judge(d, a, b)
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %8.3f %6.0f%%  %s\n",
				wl.Name, d.Name, median(a), median(b), median(b)/median(a), 100*d.Bound, verdict)
			if verdict == verdictRegressed {
				regressed = true
			}
		}
	}
	return regressed
}

// compareMain is `bench compare A.json B.json`: B against the base A.
func compareMain(args []string) int {
	if len(args) != 2 {
		fatalf("usage: bench compare BASE.json CHANGE.json")
	}
	base, err := readReport(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	change, err := readReport(args[1])
	if err != nil {
		fatalf("%v", err)
	}
	if base.Trace || change.Trace {
		fatalf("compare reads untraced reports: end-to-end metrics come only from untraced runs")
	}
	if compareReports(os.Stdout, base, change) {
		return 1
	}
	return 0
}
