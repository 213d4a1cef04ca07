package faultinject

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParsePlan asserts the -chaos-plan decoder never panics, that every
// plan it accepts passes Validate, and that an accepted plan survives a
// JSON round trip unchanged.
func FuzzParsePlan(f *testing.F) {
	f.Add(`{"seed": 1, "faults": [{"site": "linalg.gs.drift", "mode": "fire"}]}`)
	f.Add(`{"seed": 7, "faults": [{"site": "mrgp.power.stall", "mode": "stall", "delay_ms": 20}]}`)
	f.Add(`{"faults": [{"site": "a", "mode": "scale", "value": 2, "after": 3, "count": 2}]}`)
	f.Add(`{"faults": [{"site": "a", "mode": "melt"}]}`)
	f.Add(`{"faults": [{"site": "", "after": -1}]}`)
	f.Add(`{"seed": 1, "faults": []}`)
	f.Add(`{"faults": null}`)
	f.Add(`not json`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePlan([]byte(src))
		if err != nil {
			if p != nil {
				t.Fatalf("error %v returned with a plan", err)
			}
			return
		}
		if p == nil {
			t.Fatal("nil plan without an error")
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted plan fails Validate: %v", verr)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		q, err := ParsePlan(data)
		if err != nil {
			t.Fatalf("re-encoded plan %s rejected: %v", data, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the plan: %+v -> %+v", p, q)
		}
	})
}
