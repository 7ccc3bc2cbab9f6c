package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgsRoles pins role selection and what qtsimd rejects (exit 2):
// any flag the selected role does not read, and a flag no role reads. A
// rejection must name the offending flag.
func TestParseArgsRoles(t *testing.T) {
	for _, c := range []struct {
		args []string
		role string // selected role, or "" when rejected
		flag string // the flag a rejection must name
	}{
		{nil, "worker", ""},
		{[]string{"-addr", ":0", "-max-concurrent", "4", "-queue-depth", "2", "-worker-budget", "2", "-retain", "8", "-drain-timeout", "1s"}, "worker", ""},
		{[]string{"-fleet", "f.json", "-drain-timeout", "1s"}, "front", ""},
		{[]string{"-fleet", "f.json", "-addr", ":0"}, "", "-addr"},
		{[]string{"-fleet", "f.json", "-max-concurrent", "4"}, "", "-max-concurrent"},
		{[]string{"-fleet", "f.json", "-retain", "4"}, "", "-retain"},
		{[]string{"-peers", "a,b"}, "", "-peers"},
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
