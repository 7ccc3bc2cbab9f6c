// Command bench is the repository's one benchmark. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//	bench [--seed N] [--seconds S] [--trace 0|1] [--sets K] [--out FILE]   every workload, one child process each
//	bench compare A.json B.json
//	bench golden                      print a fresh golden.json (after a deliberate change of the documents)
//
// Run it through bench/run.sh from the repository root, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// procs is the GOMAXPROCS every workload runs under: two pool workers or
// two ranks on two cores, so nothing is idle and nothing oversubscribed.
const procs = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "golden" {
		os.Exit(goldenMain())
	}
	var (
		name    = flag.String("workload", "", "run only this workload, in this process; the last line of output is its result as JSON")
		seed    = flag.Uint64("seed", goldenSeed, "input seed; golden.json applies at the default")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes "+outDir+"/trace-<workload>.json")
		quick   = flag.Bool("quick", false, "smoke sizes: tiny documents, one op; the numbers mean nothing")
		sets    = flag.Int("sets", 1, "run this many full sets and compare consecutive ones")
		out     = flag.String("out", "", "also write the report of every set to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	e := env{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}
	if *name != "" {
		os.Exit(runOne(*name, e))
	}
	os.Exit(runAll(e, *sets, *out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, e env) int {
	w, ok := findWorkload(name)
	if !ok {
		fatalf("no workload %q", name)
	}
	runtime.GOMAXPROCS(procs)
	res, err := w.run(context.Background(), e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-14s %-28s %14.6g %s\n", name, d.Name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, sets times
// over, prints the children's output, and compares consecutive sets.
func runAll(e env, sets int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	rep := newReport(e)
	code := 0
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			res, err := runChild(self, w.Name, e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			rep.Workloads[w.Name] = append(rep.Workloads[w.Name], *res)
		}
	}
	if out != "" {
		if err := rep.write(out); err != nil {
			fatalf("%v", err)
		}
	}
	for set := 1; set < sets && !e.trace; set++ {
		fmt.Printf("\nset %d against set %d\n", set+1, set)
		if compareReports(os.Stdout, rep.set(set-1), rep.set(set)) {
			code = 1
		}
	}
	return code
}

// runChild runs one workload in a child process under GOMAXPROCS=procs,
// passes its output through, and parses the result line. The child has
// ended when it returns.
func runChild(self, name string, e env) (*result, error) {
	args := []string{"--workload", name, "--seed", fmt.Sprint(e.seed), "--seconds", fmt.Sprint(e.seconds)}
	if e.trace {
		args = append(args, "--trace", "1")
	}
	if e.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %v", jerr)
	}
	return &res, nil // a non-zero exit with a result line is an incorrect run, which res says
}
