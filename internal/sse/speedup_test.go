//go:build !race && (linux || darwin)

// Wall-clock ratios measure the kernels, not the race runtime's
// instrumentation, so this test only holds un-raced; it reads the process's
// CPU time through getrusage.

package sse

import (
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"time"

	"negfsim/internal/device"
)

// TestComputePhaseParallelSpeedup pins the shared-memory SSE phase to an
// actual speedup at the sse_wire benchmark's shape (Mini with Nω=6, NA=36,
// Bnum=9): the best of five two-worker DaCe phases must beat the best of
// five serial ones by at least 1.3×. Tiles write disjoint atoms and count
// flops into their own tally, so nothing they touch per block product is
// shared; a per-product atomic on a shared cache line made the two-worker
// phase slower than one worker.
//
// A wall-clock ratio only means something while the host gives the process
// two CPUs. `go test ./...` runs packages side by side, and a shared host has
// its own load, so an attempt whose fastest two-worker phase ran on fewer
// than 1.5 CPUs (process CPU time over wall time) is not judged. A contended
// phase still burns two CPUs, so it is judged and fails. Up to three
// attempts are made; if none could be judged, the test skips.
func TestComputePhaseParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs")
	}
	prm := device.Mini()
	prm.Nw, prm.NA, prm.Bnum = 6, 36, 9
	dev, err := device.New(prm)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(dev)
	rng := rand.New(rand.NewSource(5))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, prm), GGtr: randomAntiHermG(rng, prm),
		DLess: randomD(rng, prm), DGtr: randomD(rng, prm),
	}
	judged := 0
	for attempt := 1; attempt <= 3; attempt++ {
		serial, par := bestOfFive(k, in)
		ratio := float64(serial.wall) / float64(par.wall)
		cpus := float64(par.cpu) / float64(par.wall)
		t.Logf("attempt %d: serial %v, two workers %v on %.2f CPUs, speedup %.2f×",
			attempt, serial.wall, par.wall, cpus, ratio)
		if cpus < 1.5 {
			continue
		}
		if ratio >= 1.3 {
			return
		}
		judged++
	}
	if judged == 0 {
		t.Skip("the host did not give the process two CPUs")
	}
	t.Errorf("two-worker DaCe phase is not 1.3× faster than serial on %d judged attempts", judged)
}

// phaseTime is the wall-clock and process CPU time of one phase.
type phaseTime struct{ wall, cpu time.Duration }

// bestOfFive returns the fastest of five serial and of five two-worker DaCe
// phases, alternating the two so both see the same host load, after one
// untimed round that warms the arena.
func bestOfFive(k *Kernel, in PhaseInput) (serial, par phaseTime) {
	for r := -1; r < 5; r++ {
		s, p := timePhase(k, in, 1), timePhase(k, in, 2)
		if r == 0 || r > 0 && s.wall < serial.wall {
			serial = s
		}
		if r == 0 || r > 0 && p.wall < par.wall {
			par = p
		}
	}
	return serial, par
}

func timePhase(k *Kernel, in PhaseInput, workers int) phaseTime {
	c0, t0 := cpuTime(), time.Now()
	k.ComputePhaseParallel(in, DaCe, workers)
	return phaseTime{wall: time.Since(t0), cpu: cpuTime() - c0}
}

// cpuTime is the user plus system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
