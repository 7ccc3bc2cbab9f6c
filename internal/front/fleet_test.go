package front

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzParseFleetConfig feeds arbitrary bytes through the fleet file decoder
// qtsimd -fleet starts from: nothing may panic, an accepted config names a
// listen address and at least one worker, its runtime Config has positive
// intervals and bounds after defaults, and it survives a marshal and
// re-parse unchanged. The seed is examples/fleet.json.
func FuzzParseFleetConfig(f *testing.F) {
	example, err := os.ReadFile("../../examples/fleet.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(`{"workers":["http://a:1"],"health_interval_ms":-1,"quota_burst":-3,"cache_max":-2}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fc, err := ParseFleetConfig(raw)
		if err != nil {
			return
		}
		if fc.Listen == "" || len(fc.Workers) == 0 {
			t.Fatalf("accepted config %+v has no listen address or no workers", fc)
		}
		c := fc.FrontConfig().withDefaults()
		if c.HealthInterval <= 0 || c.HealthTimeout <= 0 || c.QuotaBurst <= 0 || c.CacheMax <= 0 || c.Retain <= 0 {
			t.Fatalf("accepted config %+v gives runtime config %+v", fc, c)
		}
		again, err := json.Marshal(fc)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		back, err := ParseFleetConfig(again)
		if err != nil {
			t.Fatalf("marshalled config %s does not re-parse: %v", again, err)
		}
		if !reflect.DeepEqual(back, fc) {
			t.Fatalf("round trip changed the config: %+v → %+v", fc, back)
		}
	})
}
