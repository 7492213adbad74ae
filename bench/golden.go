package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenSeed is the seed whose per-cell fingerprints are committed in
// golden/seed1.json. Runs on other seeds check invariants only.
const goldenSeed = 1

//go:embed golden/seed1.json
var goldenJSON []byte

// goldenSet maps workload → cell id → fingerprint.
type goldenSet map[string]map[string]json.RawMessage

func loadGolden() (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return g, nil
}

// writeGolden writes g with one compact fingerprint per line, so a changed
// cell shows as a one-line diff.
func writeGolden(path string, g goldenSet) error {
	var b bytes.Buffer
	b.WriteString("{\n")
	names := make([]string, 0, len(g))
	for w := range g {
		names = append(names, w)
	}
	sort.Strings(names)
	for i, w := range names {
		fmt.Fprintf(&b, "  %q: {\n", w)
		ids := make([]string, 0, len(g[w]))
		for id := range g[w] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for j, id := range ids {
			var fp bytes.Buffer
			if err := json.Compact(&fp, g[w][id]); err != nil {
				return err
			}
			fmt.Fprintf(&b, "    %q: %s%s\n", id, fp.Bytes(), comma(j, len(ids)))
		}
		fmt.Fprintf(&b, "  }%s\n", comma(i, len(names)))
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

// verdict is the correctness outcome of one workload run.
type verdict struct {
	Checks    string
	Attempted int
	Failed    int
	Failures  []string
}

const maxReportedFailures = 10

// fail counts n failed cells under one reason.
func (v *verdict) fail(n int, format string, args ...any) {
	v.Failed += n
	if len(v.Failures) < maxReportedFailures {
		v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
	}
}

// verify checks every cell of every pass. A cell fails when it returned an
// error or panicked (audit violations and unreconciled ledgers are errors),
// when its fingerprint differs from the same cell on another pass (traced
// passes included) or from its other-shard-count twin, and, with golden
// fingerprints, when it does not match its golden or does not finish
// although its golden did. A pass that produced no cells fails all of them.
func verify(expected []cellSpec, passes []passResult, golden map[string]json.RawMessage) verdict {
	var v verdict
	v.Checks = "invariants only: no golden fingerprints for this seed"
	if golden != nil {
		v.Checks = fmt.Sprintf("golden fingerprints for seed %d and invariants", goldenSeed)
	}
	first := make(map[string][]byte)
	for _, p := range passes {
		if p.Err != "" || len(p.Cells) != len(expected) {
			v.Attempted += len(expected)
			v.fail(len(expected), "pass failed after %d of %d cells: %s", len(p.Cells), len(expected), p.Err)
			continue
		}
		twins := make(map[string][]byte)
		for _, c := range p.Cells {
			v.Attempted++
			fp := compact(c.FP)
			switch {
			case c.Err != "":
				v.fail(1, "%s: %s", c.ID, c.Err)
			case golden != nil && golden[c.ID] == nil:
				v.fail(1, "%s: no golden fingerprint", c.ID)
			case golden != nil && goldenFinished(golden[c.ID]) && !c.Finished:
				v.fail(1, "%s: did not finish, its golden did", c.ID)
			case golden != nil && !bytes.Equal(fp, compact(golden[c.ID])):
				v.fail(1, "%s: fingerprint %s differs from golden %s", c.ID, fp, compact(golden[c.ID]))
			case first[c.ID] != nil && !bytes.Equal(fp, first[c.ID]):
				v.fail(1, "%s: fingerprint differs between passes", c.ID)
			case c.Pair != "" && twins[c.Pair] != nil && !bytes.Equal(fp, twins[c.Pair]):
				v.fail(1, "%s: fingerprint differs from the same cell at another shard count", c.ID)
			}
			if first[c.ID] == nil {
				first[c.ID] = fp
			}
			if c.Pair != "" && twins[c.Pair] == nil {
				twins[c.Pair] = fp
			}
		}
	}
	return v
}

func compact(raw []byte) []byte {
	var b bytes.Buffer
	if json.Compact(&b, raw) != nil {
		return raw
	}
	return b.Bytes()
}

func goldenFinished(raw json.RawMessage) bool {
	var fp struct{ Finished bool }
	return json.Unmarshal(raw, &fp) == nil && fp.Finished
}
