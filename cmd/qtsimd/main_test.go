package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgsRoles pins role selection and the contradictions qtsimd
// rejects (exit 2): -fleet with -peers, and any flag the selected role
// does not read. A rejection must name the offending flag.
func TestParseArgsRoles(t *testing.T) {
	for _, c := range []struct {
		args []string
		role string // selected role, or "" when rejected
		flag string // the flag a rejection must name
	}{
		{nil, "worker", ""},
		{[]string{"-addr", ":0", "-max-concurrent", "4", "-queue-depth", "2", "-worker-budget", "2", "-retain", "8", "-drain-timeout", "1s"}, "worker", ""},
		{[]string{"-fleet", "f.json", "-drain-timeout", "1s"}, "front", ""},
		{[]string{"-peers", "a,b", "-peer-rank", "1", "-peer-config", "r.json", "-result-out", "o.json", "-die-after-iter", "1"}, "peer", ""},
		{[]string{"-fleet", "f.json", "-peers", "a,b"}, "", "-fleet"},
		{[]string{"-fleet", "f.json", "-addr", ":0"}, "", "-addr"},
		{[]string{"-fleet", "f.json", "-max-concurrent", "4"}, "", "-max-concurrent"},
		{[]string{"-fleet", "f.json", "-retain", "4"}, "", "-retain"},
		{[]string{"-peer-config", "r.json"}, "", "-peer-config"},
		{[]string{"-peer-rank", "0"}, "", "-peer-rank"},
		{[]string{"-peers", "a,b", "-peer-rank", "0", "-addr", ":0"}, "", "-addr"},
		{[]string{"-peers", "a,b", "-peer-rank", "0", "-drain-timeout", "1s"}, "", "-drain-timeout"},
		{[]string{"-fleet", "f.json", "extra"}, "", "extra"},
	} {
		o, err := parseArgs(c.args, io.Discard)
		if c.role != "" {
			if err != nil || o.role != c.role {
				t.Errorf("%v: role %q, err %v; want role %q", c.args, o.role, err, c.role)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: accepted as role %q, want a rejection naming %s", c.args, o.role, c.flag)
		} else if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%v: error %q does not name %s", c.args, err, c.flag)
		}
	}
}
