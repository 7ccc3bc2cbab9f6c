package cmat

import "sync/atomic"

// FlopCounter accumulates floating-point operation counts of the kernels in
// this package. A complex multiply-add is counted as 8 real flops (6 for the
// multiply, 2 for the add), matching the convention the paper uses when
// quoting Pflop figures for complex arithmetic (64·… byte/flop expressions
// in §4.3 assume 8 flops per complex MAC).
//
// Counting is always on and exact, under a publish-once contract: kernel
// bodies are unexported and return the flops they did, and only exported
// entry points add to Counter. A counted kernel adds once per call. That is
// one contended cache line per call, which on 2×2 blocks from two workers
// made the parallel SSE phase slower than the serial one, so loops over
// many small blocks use the *Tally kernel forms instead: they count into a
// caller-owned Tally, published once per loop nest.
type FlopCounter struct {
	flops atomic.Uint64
}

// Counter is the package-global flop counter used by all kernels.
var Counter FlopCounter

// AddFlops records an arbitrary number of real flops.
func (c *FlopCounter) AddFlops(n uint64) { c.flops.Add(n) }

// Flops returns the total real flops recorded so far.
func (c *FlopCounter) Flops() uint64 { return c.flops.Load() }

// Reset zeroes the counter and returns the value it held.
func (c *FlopCounter) Reset() uint64 { return c.flops.Swap(0) }

// Tally is a caller-owned flop count: a plain integer that one goroutine
// adds to without synchronisation and publishes to Counter once. The zero
// value is an empty tally.
type Tally uint64

// Publish adds the tally to Counter and empties it.
func (t *Tally) Publish() {
	Counter.AddFlops(uint64(*t))
	*t = 0
}
