package main

import (
	"encoding/json"
	"testing"
)

// TestVerifyCountsEachFailureKind builds passes by hand and checks that
// every failure rule of verify counts the right cells.
func TestVerifyCountsEachFailureKind(t *testing.T) {
	expected := make([]cellSpec, 4)
	cell := func(id, pair, fp string, finished bool) cellResult {
		return cellResult{ID: id, Pair: pair, FP: json.RawMessage(fp), Finished: finished}
	}
	good := func() []cellResult {
		return []cellResult{
			cell("a", "", `{"Finished":true,"X":1}`, true),
			cell("b", "", `{"Finished":true,"X":2}`, true),
			cell("c/k1", "c", `{"Finished":false,"X":3}`, false),
			cell("c/k2", "c", `{"Finished":false,"X":3}`, false),
		}
	}
	golden := map[string]json.RawMessage{}
	for _, c := range good() {
		golden[c.ID] = c.FP
	}

	clean := []passResult{{Cells: good()}, {Cells: good()}}
	if v := verify(expected, clean, golden); v.Failed != 0 || v.Attempted != 8 {
		t.Fatalf("clean passes: %+v", v)
	}

	bad := good()
	bad[0].Err = "audit: 1 violation"                                               // cell error
	bad[1].FP, bad[1].Finished = json.RawMessage(`{"Finished":false,"X":2}`), false // golden finished, cell did not
	bad[3].FP = json.RawMessage(`{"Finished":false,"X":4}`)                         // twin diverges (and golden)
	v := verify(expected, []passResult{{Cells: good()}, {Cells: bad}, {Err: "exit status 2"}}, golden)
	if v.Attempted != 12 || v.Failed != 3+4 {
		t.Errorf("golden run: %d of %d failed, want 7 of 12: %v", v.Failed, v.Attempted, v.Failures)
	}

	// Without golden fingerprints the error still counts, and b and c/k2
	// fail because they differ from the first pass.
	v = verify(expected, []passResult{{Cells: good()}, {Cells: bad}}, nil)
	if v.Failed != 3 {
		t.Errorf("invariants only: %d failed, want 3: %v", v.Failed, v.Failures)
	}

	// A single pass whose shard-count twins disagree.
	twins := good()
	twins[3].FP = bad[3].FP
	if v := verify(expected, []passResult{{Cells: twins}}, nil); v.Failed != 1 {
		t.Errorf("twin divergence: %d failed, want 1: %v", v.Failed, v.Failures)
	}
}
