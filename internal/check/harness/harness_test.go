package harness

import (
	"runtime"
	"slices"
	"testing"

	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// TestAuditAllNetworks runs every network with audits enabled at K=1 and
// K=4 and requires zero violations and at least one checkpoint — the
// acceptance gate of the audit layer.
func TestAuditAllNetworks(t *testing.T) {
	for _, net := range check.Nets {
		for _, k := range []int{1, 4} {
			cfg := check.FuzzConfig{
				Net: net, NodesExp: 4, Multiplicity: 2, LoadPct: 50,
				PacketsPerNode: 8, Shards: k, FaultStage: -1, Seed: 7,
			}.Canon()
			r, err := Run(cfg, k, true, 0)
			if err != nil {
				t.Fatalf("%s K=%d: %v", net, k, err)
			}
			if r.Checkpoints == 0 {
				t.Errorf("%s K=%d: no checkpoints ran", net, k)
			}
			for _, v := range r.Violations {
				t.Errorf("%s K=%d: %s", net, k, v)
			}
			if !r.FP.Finished {
				t.Errorf("%s K=%d: run hit the safety horizon", net, k)
			}
			if r.FP.Delivered == 0 {
				t.Errorf("%s K=%d: nothing delivered", net, k)
			}
		}
	}
}

// TestDiffSeedConfigs runs the full four-way differential over a spread of
// hand-picked configurations covering the protocol corners: tiny RTO
// (timeout-before-ACK retransmissions), BEB off, reliability off, a fault,
// and each electrical network.
func TestDiffSeedConfigs(t *testing.T) {
	configs := []check.FuzzConfig{
		{Net: "baldur", NodesExp: 3, Multiplicity: 2, LoadPct: 70, PacketsPerNode: 6, Shards: 3, FaultStage: -1, Seed: 3},
		{Net: "baldur", NodesExp: 4, Multiplicity: 1, LoadPct: 90, PacketsPerNode: 8, Shards: 5, RTONs: 400, FaultStage: -1, Seed: 11},
		{Net: "baldur", NodesExp: 3, Multiplicity: 2, LoadPct: 80, PacketsPerNode: 5, Shards: 2, RTONs: 350, DisableBEB: true, FaultStage: -1, Seed: 5},
		{Net: "baldur", NodesExp: 2, Multiplicity: 1, LoadPct: 50, PacketsPerNode: 4, Shards: 2, DisableRetransmit: true, FaultStage: -1, Seed: 9},
		{Net: "baldur", NodesExp: 4, Multiplicity: 3, LoadPct: 60, PacketsPerNode: 4, Shards: 4, FaultStage: 1, FaultSwitch: 3, Seed: 13},
		{Net: "multibutterfly", NodesExp: 4, Multiplicity: 3, LoadPct: 85, PacketsPerNode: 10, Shards: 4, FaultStage: -1, Seed: 17},
		{Net: "dragonfly", LoadPct: 75, PacketsPerNode: 4, Shards: 3, FaultStage: -1, Seed: 19},
		{Net: "fattree", LoadPct: 65, PacketsPerNode: 9, Shards: 4, FaultStage: -1, Seed: 23},
	}
	for _, cfg := range configs {
		cfg := cfg.Canon()
		if err := Diff(cfg); err != nil {
			t.Errorf("%s: %v", cfg.GoLiteral(), err)
		}
	}
}

// TestAuditDetectsSeededSkew proves the detection path end to end: a
// deliberately skewed injected count must produce violations, and Shrink
// must converge to a config that still fails.
func TestAuditDetectsSeededSkew(t *testing.T) {
	cfg := check.FuzzConfig{
		Net: "baldur", NodesExp: 4, Multiplicity: 2, LoadPct: 70,
		PacketsPerNode: 8, Shards: 4, RTONs: 400, FaultStage: -1, Seed: 3,
	}.Canon()
	if !FailsWithSkew(cfg) {
		t.Fatal("seeded conservation skew went undetected")
	}
	min, calls := check.Shrink(cfg, FailsWithSkew, 200)
	if calls == 0 {
		t.Fatal("shrinker made no progress evaluations")
	}
	if !FailsWithSkew(min) {
		t.Fatalf("shrunk config %s no longer fails", min.GoLiteral())
	}
	// The skew is config-independent, so the shrinker must reach the global
	// minimum for the net: the smallest shape still failing.
	if min.NodesExp != 2 || min.PacketsPerNode != 1 {
		t.Errorf("shrink stopped early: %s", min.GoLiteral())
	}

	// The skew must also trip the lossless-network ledgers.
	for _, net := range []string{"multibutterfly", "dragonfly", "fattree"} {
		c := check.FuzzConfig{Net: net, NodesExp: 3, LoadPct: 50, PacketsPerNode: 3, Shards: 2, Seed: 5}.Canon()
		if !FailsWithSkew(c) {
			t.Errorf("%s: seeded skew went undetected", net)
		}
	}
}

// TestRunDeterminism re-runs one config and requires identical fingerprints:
// the property every differential comparison rests on.
func TestRunDeterminism(t *testing.T) {
	cfg := check.FuzzConfig{
		Net: "baldur", NodesExp: 3, Multiplicity: 2, LoadPct: 60,
		PacketsPerNode: 5, Shards: 3, FaultStage: -1, Seed: 21,
	}.Canon()
	a, err := Run(cfg, cfg.Shards, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, cfg.Shards, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.FP != b.FP {
		t.Fatalf("rerun diverged:\n  a: %+v\n  b: %+v", a.FP, b.FP)
	}
}

// TestDeliveryShardContract pins OnDeliver's contract on every network at
// K = 1, 2 and 4: each callback is passed the destination node's shard, and
// the Collector, which indexes its per-shard counts by that argument, takes
// one latency sample per delivery.
func TestDeliveryShardContract(t *testing.T) {
	for _, name := range slices.Concat(check.Nets, []string{"ideal"}) {
		for _, k := range []int{1, 2, 4} {
			cfg := check.FuzzConfig{
				Net: name, NodesExp: 4, Multiplicity: 2, LoadPct: 60,
				PacketsPerNode: 6, Shards: k, FaultStage: -1, Seed: 5,
			}
			if name != "ideal" { // Canon knows only the fuzzed networks
				cfg = cfg.Canon()
			}
			net, _, err := Build(cfg, k)
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			var col netsim.Collector
			col.Attach(net)
			// Counted per destination node, the state a callback may touch
			// whatever shard it is passed.
			type tally struct{ calls, wrong, off0 int }
			perNode := make([]tally, net.NumNodes())
			net.OnDeliver(func(shard int, p *netsim.Packet, _ sim.Time) {
				n := &perNode[p.Dst]
				n.calls++
				if shard != net.NodeShard(p.Dst) {
					n.wrong++
				}
				if shard != 0 {
					n.off0++
				}
			})
			StartOpenLoop(net, cfg)
			net.Run(sim.Time(0).Add(Horizon))
			calls, wrong, off0 := 0, 0, 0
			for _, n := range perNode {
				calls, wrong, off0 = calls+n.calls, wrong+n.wrong, off0+n.off0
			}
			if calls == 0 || wrong != 0 {
				t.Errorf("%s K=%d: %d of %d callbacks passed a shard other than NodeShard(p.Dst)", name, k, wrong, calls)
			}
			if k > 1 && name != "ideal" && off0 == 0 {
				t.Errorf("%s K=%d: every delivery landed on shard 0; the contract went unexercised", name, k)
			}
			if d := col.Delivered(); col.Samples() != int64(d) || d != uint64(calls) {
				t.Errorf("%s K=%d: Samples %d, Delivered %d, callbacks %d; want all equal", name, k, col.Samples(), d, calls)
			}
		}
	}
}

// sender is an injection event that sends packets from src round-robin
// over dsts, one packet per run.
type sender struct {
	net  netsim.Network
	src  int
	dsts []int
	k    int
}

func (s *sender) Run(*sim.Engine) {
	s.net.Send(s.src, s.dsts[s.k%len(s.dsts)], 0)
	s.k++
}

// TestSendsRecyclePackets pins packet and event recycling on every network
// at K = 1 and 2: once two warm-up batches have drained, a third identical
// batch allocates almost nothing per packet, so no Send allocates its packet
// and no pool leaks entries between shards. In one shape each node sends to
// its mirror node, so packets that die on another shard come back to the
// shard that sent them in the next batch; in the other each node spreads its
// packets round-robin over four destinations, so every receiver sees each
// source's sequence numbers with gaps.
func TestSendsRecyclePackets(t *testing.T) {
	for _, shape := range []struct {
		name    string
		perNode int
		dsts    func(src, nodes int) []int
	}{
		{"mirror", 16, func(src, nodes int) []int { return []int{nodes - 1 - src} }},
		{"fan4", 64, func(src, nodes int) []int {
			d := make([]int, 4)
			for j := range d {
				d[j] = (src + 1 + j*nodes/4) % nodes
			}
			return d
		}},
	} {
		for _, name := range slices.Concat(check.Nets, []string{"ideal"}) {
			for _, k := range []int{1, 2} {
				cfg := check.FuzzConfig{Net: name, NodesExp: 5, Multiplicity: 2, Shards: k, FaultStage: -1, Seed: 3}
				if name != "ideal" {
					cfg = cfg.Canon()
				}
				net, _, err := Build(cfg, k)
				if err != nil {
					t.Fatalf("%s %s K=%d: %v", shape.name, name, k, err)
				}
				nodes := net.NumNodes()
				senders := make([]sender, nodes)
				for i := range senders {
					senders[i] = sender{net: net, src: i, dsts: shape.dsts(i, nodes)}
				}
				batch := func() {
					start := net.Engine().Now()
					for i := range senders {
						for j := range shape.perNode {
							net.ScheduleNode(i, start.Add(sim.Duration(j)*200*sim.Nanosecond), &senders[i])
						}
					}
					if net.Run(start.Add(Horizon)) {
						t.Fatalf("%s %s K=%d: batch did not drain", shape.name, name, k)
					}
				}
				batch()
				batch()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				batch()
				runtime.ReadMemStats(&after)
				pkts := float64(nodes * shape.perNode)
				if per := float64(after.Mallocs-before.Mallocs) / pkts; per >= 0.05 {
					t.Errorf("%s %s K=%d: third batch allocated %.3f objects per packet, want < 0.05", shape.name, name, k, per)
				}
				if got := net.Ledger().Delivered; got != 3*uint64(pkts) {
					t.Errorf("%s %s K=%d: delivered %d of %d packets", shape.name, name, k, got, 3*uint64(pkts))
				}
			}
		}
	}
}
