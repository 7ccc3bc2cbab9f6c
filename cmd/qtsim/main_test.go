package main

import (
	"strings"
	"testing"
)

// TestClusterLinesPrintBytesOnce pins the cluster summary: a single-axis
// run keeps its one line with the byte total, and a run on both axes
// prints the total once, after a line per axis.
func TestClusterLinesPrintBytesOnce(t *testing.T) {
	const bytes, rec = "9.67 MiB exchanged", "0 recoveries"
	for _, c := range []struct {
		te, ta, space int
		want          string
	}{
		{0, 0, 0, ""},
		{2, 2, 0, "distributed SSE on 2x2 ranks: 9.67 MiB exchanged, 0 recoveries"},
		{0, 0, 2, "spatially partitioned GF on 2 ranks: 9.67 MiB exchanged, 0 recoveries"},
		{2, 1, 2, "distributed SSE on 2x1 ranks\nspatially partitioned GF on 2 ranks\nrun total: 9.67 MiB exchanged, 0 recoveries"},
	} {
		got := strings.Join(clusterLines(c.te, c.ta, c.space, bytes, rec), "\n")
		if got != c.want {
			t.Errorf("te=%d ta=%d space=%d: got %q, want %q", c.te, c.ta, c.space, got, c.want)
		}
		if n := strings.Count(got, bytes); n > 1 {
			t.Errorf("te=%d space=%d: byte total printed %d times", c.te, c.space, n)
		}
	}
}
