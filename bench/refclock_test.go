package main

import (
	"slices"
	"testing"
)

// TestRefClockSamplesDoSameWork checks the property reference seconds rest
// on: every sample runs the kernel from the same state to the same state,
// so a sample's time depends on the host's speed alone.
func TestRefClockSamplesDoSameWork(t *testing.T) {
	r := newRefClock()
	r.sample()
	first := slices.Clone(r.heap)
	r.sample()
	if !slices.Equal(first, r.heap) {
		t.Fatal("two reference samples left different heaps")
	}
	if slices.Equal(first, r.start) {
		t.Fatal("reference sample did not change the heap")
	}
	if len(r.ns) != 2 || r.nsPerOp() <= 0 {
		t.Fatalf("samples %v, mean %v ns/op", r.ns, r.nsPerOp())
	}
}

// TestRefSeconds checks the conversion of measured to reference seconds.
func TestRefSeconds(t *testing.T) {
	p := passResult{RefNS: 2 * refNominalNS}
	if got := p.refSeconds(3); got != 1.5 {
		t.Fatalf("3 s on a host at half the nominal speed = %v reference s, want 1.5", got)
	}
}
