package core

import (
	"reflect"
	"testing"

	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// loadInjector drives an open-loop Poisson-ish load from one node, living
// entirely on that node's shard.
type loadInjector struct {
	net       *Network
	src, dst  int
	remaining int
	mean      sim.Duration
	rng       *sim.RNG
}

func (in *loadInjector) Run(e *sim.Engine) {
	in.net.Send(in.src, in.dst, 0)
	in.remaining--
	if in.remaining > 0 {
		in.net.ScheduleNode(in.src, e.Now().Add(in.rng.ExpDuration(in.mean)), in)
	}
}

type shardedRunResult struct {
	stats     Stats
	events    uint64
	delivered uint64
	avgNS     float64
	tailNS    float64
}

func runShardedLoad(t *testing.T, shards int, seed uint64) shardedRunResult {
	t.Helper()
	n, err := New(Config{Nodes: 64, Seed: seed, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var col netsim.Collector
	col.Attach(n)
	for src := 0; src < 64; src++ {
		in := &loadInjector{
			net:       n,
			src:       src,
			dst:       (src*13 + 7) % 64,
			remaining: 30,
			mean:      300 * sim.Nanosecond,
			rng:       sim.NewRNG(seed).Fork(uint64(src) + 1),
		}
		n.ScheduleNode(src, sim.Time(0).Add(in.rng.ExpDuration(in.mean)), in)
	}
	if more := n.Run(sim.Time(10 * sim.Millisecond)); more {
		t.Fatalf("shards=%d: run hit the horizon", shards)
	}
	return shardedRunResult{
		stats:     n.Stats,
		events:    n.Events(),
		delivered: col.Delivered(),
		avgNS:     col.AvgNS(),
		tailNS:    col.TailNS(),
	}
}

// TestShardedBitIdenticalToSerial is the core-level determinism guarantee:
// every statistic — protocol counters, drop histogram, ACK moments, latency
// mean and tail, and the event count itself — is bit-identical across shard
// counts.
func TestShardedBitIdenticalToSerial(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		ref := runShardedLoad(t, 1, seed)
		if ref.stats.Delivered != 64*30 {
			t.Fatalf("seed %d: serial delivered %d unique packets, want %d", seed, ref.stats.Delivered, 64*30)
		}
		for _, k := range []int{2, 4, 8} {
			got := runShardedLoad(t, k, seed)
			if !reflect.DeepEqual(got.stats, ref.stats) {
				t.Errorf("seed %d shards=%d: stats diverge\n got %+v\nwant %+v", seed, k, got.stats, ref.stats)
			}
			if got.events != ref.events {
				t.Errorf("seed %d shards=%d: events %d, serial %d", seed, k, got.events, ref.events)
			}
			if got.delivered != ref.delivered || got.avgNS != ref.avgNS || got.tailNS != ref.tailNS {
				t.Errorf("seed %d shards=%d: collector (%d, %v, %v), serial (%d, %v, %v)",
					seed, k, got.delivered, got.avgNS, got.tailNS, ref.delivered, ref.avgNS, ref.tailNS)
			}
		}
	}
}

// TestShardedEpochsProgress sanity-checks that a sharded run actually takes
// the parallel path (epochs advance) and a serial one does not.
func TestShardedEpochsProgress(t *testing.T) {
	if got := runShardedLoad(t, 1, 3); got.events == 0 {
		t.Fatal("serial run executed nothing")
	}
	n, err := New(Config{Nodes: 16, Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	n.Send(0, 9, 0)
	n.Run(sim.Time(1 * sim.Millisecond))
	if n.Epochs() == 0 {
		t.Error("sharded run advanced zero epochs")
	}
	if n.Stats.Delivered != 1 {
		t.Errorf("delivered %d, want 1", n.Stats.Delivered)
	}
}

// TestRecyclingUnderParallelEpochs runs networks wide enough that most
// epochs dispatch on worker goroutines, with an RTO far below the round
// trip, so most packets are retransmitted and many are ACKed while a copy
// is still in flight to the fabric or, at K=3, to a destination on another
// shard. Under the race detector it checks that the quarantine orders every
// read of such a copy before the packet's next use; the audit checks the
// packet census and that no event met a released or reused packet.
func TestRecyclingUnderParallelEpochs(t *testing.T) {
	const nodes = 8192
	for _, k := range []int{2, 3} {
		n := mustNew(t, Config{Nodes: nodes, Seed: 1, RTO: 300 * sim.Nanosecond, Shards: k})
		aud := check.New(check.Options{})
		n.AttachAudit(aud)
		ol := traffic.OpenLoop{Pattern: traffic.RandomPermutation(nodes, 4), Load: 0.9, PacketsPerNode: 6, Seed: 6}
		ol.Start(n)
		netsim.Drive(n, nil, netsim.DriveOptions{Deadline: sim.Time(200 * sim.Microsecond), Aud: aud})
		if n.ParallelEpochs() == 0 || n.Stats.Duplicates == 0 {
			t.Fatalf("K=%d: construction broke: %d parallel epochs, %d duplicates", k, n.ParallelEpochs(), n.Stats.Duplicates)
		}
		if err := aud.Err(); err != nil {
			t.Errorf("K=%d: %v", k, err)
		}
	}
}

// TestLostTraversalsReturnTheirEvents sends a lossy burst from the NICs of
// shard 1 to those of shard 2 and a light one back, batch after batch, at
// K=3. Every traversal that dies in the fabric leaves its pooled event on
// the fabric's free list; Run's fold must hand it back to the shard that
// lost it, so once the pools have grown to the batch's peak no shard
// allocates events any more. Dealing the fabric's spare events evenly
// instead starves shard 1 and keeps it allocating every batch.
func TestLostTraversalsReturnTheirEvents(t *testing.T) {
	n := mustNew(t, Config{Nodes: 32, Multiplicity: 2, Seed: 3, Shards: 3})
	pooled := func() (total int) {
		for _, sh := range n.shards {
			for ev := sh.evFree; ev != nil; ev = ev.next {
				total++
			}
		}
		return total
	}
	var grown, sent int
	for b := range 10 {
		start, before := n.Engine().Now(), pooled()
		for src := range 32 {
			burst, dst := 4, 47-src
			if src < 16 { // shard 1's NICs
				burst, dst = 32, 16+src%4
			}
			for k := range burst {
				n.ScheduleNode(src, start.Add(sim.Duration(k)*100*sim.Nanosecond), sim.EventFunc(func() { n.Send(src, dst, 0) }))
			}
			if b >= 4 {
				sent += burst
			}
		}
		if n.Run(start.Add(sim.Second)) {
			t.Fatalf("batch %d did not drain", b)
		}
		if b >= 4 {
			grown += pooled() - before
		}
	}
	if l := n.Ledger(); l.DataDrops+l.AckDrops == 0 {
		t.Fatal("no traversal died in the fabric")
	}
	if per := float64(grown) / float64(sent); per >= 0.05 {
		t.Errorf("pooled events grew by %d over the last six batches, %.3f per packet; want < 0.05", grown, per)
	}
}
