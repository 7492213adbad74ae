package elecnet

import (
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
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

func TestMinimalBeatsValiantOnUniform(t *testing.T) {
	// On benign traffic, always-Valiant wastes hops; minimal should win.
	uniform := func(nodes int) *traffic.Pattern {
		return traffic.RandomPermutation(nodes, 6)
	}
	minimal := dragonflyLatency(t, "minimal", uniform, 0.3)
	valiant := dragonflyLatency(t, "valiant", uniform, 0.3)
	if minimal >= valiant {
		t.Errorf("minimal (%.0f ns) not better than valiant (%.0f ns) on uniform traffic", minimal, valiant)
	}
}

func TestUGALTracksTheBetterPolicy(t *testing.T) {
	// UGAL should be within a modest factor of the best pure policy in
	// both regimes.
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
	if _, err := NewDragonfly(DragonflyConfig{P: 1, Routing: "zigzag"}); err == nil {
		t.Error("unknown routing mode accepted")
	}
}

func TestValiantDelivers(t *testing.T) {
	n, err := NewDragonfly(DragonflyConfig{P: 1, Seed: 2, Routing: "valiant"})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	n.OnDeliver(func(*netsim.Packet, sim.Time) { got++ })
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if s != d {
				n.Send(s, d, 0)
			}
		}
	}
	drain(t, n)
	if got != 30 {
		t.Errorf("delivered %d of 30 under pure Valiant", got)
	}
}
