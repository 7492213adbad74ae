package main

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestRefusesRankCountBeforeGenerating pins that a -nodes value outside the
// trace format's rank bounds is refused up front: the error names the
// bound, and the workload is never built (2,000,000 ranks of AMG would
// allocate far more than the MiB allowed here).
func TestRefusesRankCountBeforeGenerating(t *testing.T) {
	for _, nodes := range []string{"2000000", "0", "-3"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run([]string{"-nodes", nodes}, io.Discard)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "outside the format's bounds") {
			t.Errorf("-nodes %s: got %v, want the rank-bound error", nodes, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("-nodes %s: allocated %d B before refusing; the workload was built", nodes, alloc)
		}
	}
}

func TestGeneratesWithinBounds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "FB", "-nodes", "8", "-iterations", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "workload ") {
		t.Errorf("trace does not start with its header:\n%s", out.String())
	}
}
