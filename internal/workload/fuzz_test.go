package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"baldur/internal/elecnet"
)

// FuzzParseSpec feeds arbitrary bytes to the workload spec decoder. Any
// input must come back as a spec or an error, never a panic or a hang, and
// an accepted spec must run: New and Attach on a small ideal network take
// it, unless a hotspot target lies past that network's nodes (the one check
// that waits for the node count). The corpus is seeded with the committed
// example workloads, the workload block of each example campaign, and
// specs naming each of the six policies with their parameters.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range exampleJSON(f, "../../examples/workloads/*.json", "") {
		f.Add(seed)
	}
	for _, seed := range exampleJSON(f, "../../examples/campaigns/*.json", "workload") {
		f.Add(seed)
	}
	for _, policies := range []string{
		`"admission": {"policy": "always"}, "routing": {"policy": "uniform"}`,
		`"admission": {"policy": "reject_all"}, "routing": {"policy": "permutation"}`,
		`"admission": {"policy": "token_bucket", "params": {"rate_gbps": 40, "burst_kb": 16}},
		 "routing": {"policy": "hotspot", "params": {"target": 3}}`,
	} {
		f.Add([]byte(`{"name": "p", "tenants": [{"name": "t",
			"arrival": {"process": "poisson", "rate_fps": 1000000},
			"size": {"dist": "fixed", "bytes": 4096}, ` + policies + `}]}`))
	}
	// The slowest rate and the dwell bounds the spec accepts; the window
	// holds just under the bound of mean 1 ps dwells.
	f.Add([]byte(`{"name": "edge", "duration_us": 0.09, "tenants": [{"name": "t",
		"arrival": {"process": "mmpp", "rate_fps": 0.001, "dwell_us": 1e9, "burst_dwell_us": 1e-6},
		"size": {"dist": "fixed", "bytes": 1}}]}`))
	const nodes = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		for _, ts := range s.Tenants {
			if ts.Routing.Policy == "hotspot" && ts.Routing.Params["target"] >= nodes {
				return
			}
		}
		d, err := New(s)
		if err != nil {
			t.Fatalf("ParseSpec accepted a spec New refuses: %v", err)
		}
		if err := d.Attach(elecnet.NewIdeal(nodes, 0)); err != nil {
			t.Fatalf("ParseSpec accepted a spec Attach refuses: %v", err)
		}
	})
}

// exampleJSON returns the files matching pattern, or with field set, the
// raw value of that top-level field of each file that has it.
func exampleJSON(f *testing.F, pattern, field string) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		f.Fatalf("no examples match %s (%v)", pattern, err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if field == "" {
			out = append(out, data)
			continue
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		if v, ok := top[field]; ok {
			out = append(out, v)
		}
	}
	return out
}
