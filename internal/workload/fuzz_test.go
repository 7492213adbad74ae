package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the workload spec decoder. Any
// input must come back as a spec or an error, never a panic or a hang, and
// an accepted spec must pass Validate on its own. The corpus is seeded with
// the committed example workloads and the workload block of each example
// campaign.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range exampleJSON(f, "../../examples/workloads/*.json", "") {
		f.Add(seed)
	}
	for _, seed := range exampleJSON(f, "../../examples/campaigns/*.json", "workload") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec Validate rejects: %v", err)
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
