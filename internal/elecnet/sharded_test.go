package elecnet

import (
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

type eshardResult struct {
	ledger    netsim.Ledger
	events    uint64
	delivered uint64
	avgNS     float64
	tailNS    float64
}

// runShardedElec drives an open-loop random permutation on net and returns
// every observable statistic.
func runShardedElec(t *testing.T, net netsim.Network, seed uint64) eshardResult {
	t.Helper()
	var col netsim.Collector
	col.Attach(net)
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(net.NumNodes(), seed),
		Load:           0.6,
		PacketsPerNode: 40,
		Seed:           seed + 1,
	}
	ol.Start(net)
	if more := net.Run(sim.Time(5 * sim.Millisecond)); more {
		t.Fatal("run hit the horizon")
	}
	return eshardResult{
		ledger:    net.Ledger(),
		events:    net.Events(),
		delivered: col.Delivered(),
		avgNS:     col.AvgNS(),
		tailNS:    col.TailNS(),
	}
}

func checkShardedElec(t *testing.T, name string, build func(shards int) netsim.Network) {
	t.Helper()
	const seed = 11
	ref := runShardedElec(t, build(1), seed)
	if ref.ledger.Injected == 0 || ref.ledger.Injected != ref.ledger.Delivered {
		t.Fatalf("%s serial: injected %d delivered %d", name, ref.ledger.Injected, ref.ledger.Delivered)
	}
	for _, k := range []int{2, 4} {
		net := build(k)
		if got := net.NumShards(); got < 2 {
			t.Fatalf("%s shards=%d: partition produced %d shards", name, k, got)
		}
		got := runShardedElec(t, net, seed)
		if got != ref {
			t.Errorf("%s shards=%d diverged:\n got %+v\nwant %+v", name, k, got, ref)
		}
	}
}

// TestElecShardedBitIdentical asserts that every electrical baseline
// produces bit-identical statistics — counters, hop bound, event count,
// latency mean and tail — for any shard count.
func TestElecShardedBitIdentical(t *testing.T) {
	checkShardedElec(t, "multibutterfly", func(k int) netsim.Network {
		n, err := NewMultiButterfly(MBConfig{Nodes: 64, Multiplicity: 2, Seed: 3, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
	checkShardedElec(t, "dragonfly", func(k int) netsim.Network {
		n, err := NewDragonfly(DragonflyConfig{P: 2, Seed: 4, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
	checkShardedElec(t, "fattree", func(k int) netsim.Network {
		n, err := NewFatTree(FatTreeConfig{K: 4, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
}

// TestElecShardedEpochsProgress confirms sharded runs take the epoch path.
func TestElecShardedEpochsProgress(t *testing.T) {
	n, err := NewDragonfly(DragonflyConfig{P: 2, Seed: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(n.NumNodes(), 2),
		Load:           0.5,
		PacketsPerNode: 10,
		Seed:           9,
	}
	ol.Start(n)
	if more := n.Run(sim.Time(5 * sim.Millisecond)); more {
		t.Fatal("run hit the horizon")
	}
	if n.Epochs() == 0 {
		t.Error("sharded run advanced zero epochs")
	}
	if n.Injected != n.Delivered || n.Injected == 0 {
		t.Errorf("injected %d delivered %d", n.Injected, n.Delivered)
	}
}
