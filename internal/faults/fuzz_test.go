package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScripts feeds arbitrary bytes to the fault-script decoder and
// compiles every script it accepts. Any input must come back as a script or
// an error, never a panic or a hang, and a compiled script's events must be
// in time order. The corpus is seeded with the scripts of the committed
// example campaigns.
func FuzzParseScripts(f *testing.F) {
	paths, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example campaigns (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var c struct {
			Scripts json.RawMessage `json:"scripts"`
		}
		if err := json.Unmarshal(data, &c); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		if c.Scripts != nil {
			f.Add([]byte(c.Scripts), uint64(1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		specs, err := ParseScripts(data)
		if err != nil {
			return
		}
		for _, spec := range specs {
			s, err := spec.Compile(seed)
			if err != nil {
				continue
			}
			for i := 1; i < len(s.Events); i++ {
				if s.Events[i].At < s.Events[i-1].At {
					t.Fatalf("script %q: event %d at %v precedes event %d at %v",
						s.Name, i, s.Events[i].At, i-1, s.Events[i-1].At)
				}
			}
		}
	})
}
