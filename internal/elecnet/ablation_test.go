package elecnet

import (
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/traffic"
)

// dragonflyLatency measures the average latency of a dragonfly with the
// given routing mode under a pattern at a load.
func dragonflyLatency(t *testing.T, routing string, pat func(nodes int) *traffic.Pattern, load float64) float64 {
	t.Helper()
	n, err := NewDragonfly(DragonflyConfig{P: 2, Seed: 4, Routing: routing})
	if err != nil {
		t.Fatal(err)
	}
	var c netsim.Collector
	c.Attach(n)
	ol := traffic.OpenLoop{
		Pattern:        pat(n.NumNodes()),
		Load:           load,
		PacketsPerNode: 80,
		Seed:           3,
	}
	ol.Start(n)
	drain(t, n)
	if n.Injected != n.Delivered {
		t.Fatalf("routing %q lost packets: %d vs %d", routing, n.Injected, n.Delivered)
	}
	return c.AvgNS()
}

func TestUGALBeatsMinimalOnAdversarial(t *testing.T) {
	// Group permutation concentrates each group's traffic on one global
	// channel: minimal routing serializes on it while UGAL diverts via
	// intermediate groups (the reason the paper configures dragonfly with
	// adaptive routing).
	groupPat := func(nodes int) *traffic.Pattern {
		return traffic.GroupPermutation(nodes, 8, 5)
	}
	minimal := dragonflyLatency(t, "minimal", groupPat, 0.7)
	ugal := dragonflyLatency(t, "ugal", groupPat, 0.7)
	if ugal >= minimal {
		t.Errorf("UGAL (%.0f ns) not better than minimal (%.0f ns) on group permutation", ugal, minimal)
	}
}

func TestUGALTracksTheBetterPolicy(t *testing.T) {
	// On benign traffic UGAL should stay within a modest factor of
	// minimal routing.
	uniform := func(nodes int) *traffic.Pattern {
		return traffic.RandomPermutation(nodes, 6)
	}
	minimal := dragonflyLatency(t, "minimal", uniform, 0.3)
	ugal := dragonflyLatency(t, "ugal", uniform, 0.3)
	if ugal > 1.5*minimal {
		t.Errorf("UGAL %.0f ns vs minimal %.0f ns on benign traffic: adaptive tax too high", ugal, minimal)
	}
}

func TestUnknownRoutingRejected(t *testing.T) {
	for _, routing := range []string{"zigzag", "valiant"} {
		if _, err := NewDragonfly(DragonflyConfig{P: 1, Routing: routing}); err == nil {
			t.Errorf("unknown routing mode %q accepted", routing)
		}
	}
}
