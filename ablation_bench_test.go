// Ablation benchmarks for the design choices DESIGN.md calls out: the
// randomized inter-stage wiring (expansion), binary exponential backoff,
// adaptive (UGAL) routing in the dragonfly baseline, path multiplicity, and
// the >100G link-rate headroom the paper's future-work section claims.
package baldur_test

import (
	"testing"

	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// rawDrop runs a no-retransmit Baldur config under transpose at 0.7 load
// and returns the drop rate.
func rawDrop(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	cfg.DisableRetransmit = true
	n, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ol := traffic.OpenLoop{
		Pattern:        traffic.Transpose(cfg.Nodes),
		Load:           0.7,
		PacketsPerNode: 100,
		Seed:           9,
	}
	ol.Start(n)
	n.Engine().Run()
	return n.Stats.DataDropRate()
}

// BenchmarkAblationRandomWiring quantifies the expansion property: the
// randomized matchings versus a regular butterfly under the adversarial
// transpose permutation.
func BenchmarkAblationRandomWiring(b *testing.B) {
	b.ReportAllocs()
	var random, regular float64
	for i := 0; i < b.N; i++ {
		random = rawDrop(b, core.Config{Nodes: 256, Multiplicity: 4, Seed: 3})
		regular = rawDrop(b, core.Config{Nodes: 256, Multiplicity: 4, Seed: 3, Topology: "butterfly"})
	}
	b.ReportMetric(random*100, "random_drop_%")
	b.ReportMetric(regular*100, "regular_drop_%")
	b.ReportMetric(regular/random, "expansion_advantage_x")
}

// BenchmarkAblationBEB compares goodput under hotspot congestion with and
// without binary exponential backoff, at a fixed virtual-time horizon.
func BenchmarkAblationBEB(b *testing.B) {
	b.ReportAllocs()
	run := func(disable bool) (delivered uint64) {
		n, err := core.New(core.Config{Nodes: 64, Multiplicity: 2, Seed: 21, DisableBEB: disable})
		if err != nil {
			b.Fatal(err)
		}
		ol := traffic.OpenLoop{
			Pattern:        traffic.Hotspot(64, 0),
			Load:           0.7,
			PacketsPerNode: 20,
			Seed:           17,
		}
		ol.Start(n)
		n.Engine().RunUntil(sim.Time(400 * sim.Microsecond))
		return n.Stats.Delivered
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(float64(with), "goodput_with_beb")
	b.ReportMetric(float64(without), "goodput_without_beb")
}

// BenchmarkAblationUGAL compares dragonfly minimal vs UGAL routing on the
// adversarial group permutation.
func BenchmarkAblationUGAL(b *testing.B) {
	b.ReportAllocs()
	run := func(routing string) float64 {
		n, err := elecnet.NewDragonfly(elecnet.DragonflyConfig{P: 2, Seed: 4, Routing: routing})
		if err != nil {
			b.Fatal(err)
		}
		var c netsim.Collector
		c.Attach(n)
		ol := traffic.OpenLoop{
			Pattern:        traffic.GroupPermutation(n.NumNodes(), 8, 5),
			Load:           0.7,
			PacketsPerNode: 60,
			Seed:           3,
		}
		ol.Start(n)
		n.Engine().Run()
		return c.AvgNS()
	}
	var minimal, ugal float64
	for i := 0; i < b.N; i++ {
		minimal = run("minimal")
		ugal = run("ugal")
	}
	b.ReportMetric(minimal, "minimal_avg_ns")
	b.ReportMetric(ugal, "ugal_avg_ns")
	b.ReportMetric(minimal/ugal, "ugal_speedup_x")
}

// BenchmarkAblationMultiplicity sweeps m at fixed load, reporting the
// drop/latency trade-off that motivated Table V.
func BenchmarkAblationMultiplicity(b *testing.B) {
	b.ReportAllocs()
	measure := func(m int) (dropPct, avgNS float64) {
		n, err := core.New(core.Config{Nodes: 256, Multiplicity: m, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		var c netsim.Collector
		c.Attach(n)
		ol := traffic.OpenLoop{
			Pattern:        traffic.Transpose(256),
			Load:           0.7,
			PacketsPerNode: 80,
			Seed:           9,
		}
		ol.Start(n)
		n.Engine().Run()
		return n.Stats.DataDropRate() * 100, c.AvgNS()
	}
	var d1, l1, d4, l4 float64
	for i := 0; i < b.N; i++ {
		d1, l1 = measure(1)
		d4, l4 = measure(4)
	}
	b.ReportMetric(d1, "m1_drop_%")
	b.ReportMetric(l1, "m1_avg_ns")
	b.ReportMetric(d4, "m4_drop_%")
	b.ReportMetric(l4, "m4_avg_ns")
}

// BenchmarkLinkRateHeadroom exercises the paper's future-work claim that
// Baldur's in-flight switching supports >100G links: raising the line rate
// shortens serialization while the 1.5 ns per-stage switching is unchanged,
// so zero-load latency approaches the pure propagation floor.
func BenchmarkLinkRateHeadroom(b *testing.B) {
	b.ReportAllocs()
	measure := func(rate float64) float64 {
		n, err := core.New(core.Config{Nodes: 256, Seed: 3, LinkRate: rate})
		if err != nil {
			b.Fatal(err)
		}
		var c netsim.Collector
		c.Attach(n)
		ol := traffic.OpenLoop{
			Pattern:        traffic.RandomPermutation(256, 5),
			Load:           0.5,
			PacketsPerNode: 60,
			Seed:           2,
		}
		ol.Start(n)
		n.Engine().Run()
		return c.AvgNS()
	}
	var at25, at100, at400 float64
	for i := 0; i < b.N; i++ {
		at25 = measure(25e9)
		at100 = measure(100e9)
		at400 = measure(400e9)
	}
	b.ReportMetric(at25, "avg_ns@25G")
	b.ReportMetric(at100, "avg_ns@100G")
	b.ReportMetric(at400, "avg_ns@400G")
}
