package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// outDir is where a traced run leaves its spans, relative to the checkout
// root the benchmark is run from.
const outDir = "bench/out"

func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM); 0 where
// /proc does not tell.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// allocMB is the bytes allocated since process start, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}
