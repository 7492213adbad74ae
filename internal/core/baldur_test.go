package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

func mustNew(t testing.TB, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// drain runs n until no event remains, failing t if a second of virtual
// time does not suffice.
func drain(t *testing.T, n netsim.Network) {
	t.Helper()
	if n.Run(sim.Time(sim.Second)) {
		t.Fatal("events still queued after 1 s of virtual time")
	}
}

// TestConfigDefaults pins the Table VI and Table V constants the model runs
// at: a silent edit to any of them changes every result, so it must fail
// here first.
func TestConfigDefaults(t *testing.T) {
	if netsim.PacketSize != 512 || ackSize != 32 || netsim.LineRate != 25e9 ||
		netsim.HostLinkDelay != 100*sim.Nanosecond {
		t.Errorf("Table VI: data %d B, ACK %d B, line %v bit/s, host link %v; want 512 B, 32 B, 25e9, 100ns",
			netsim.PacketSize, ackSize, netsim.LineRate, netsim.HostLinkDelay)
	}
	n := mustNew(t, Config{})
	cfg := n.Config()
	if cfg.Nodes != 1024 || cfg.Multiplicity != 4 || cfg.LinkRate != 25e9 {
		t.Errorf("defaults = %+v", cfg)
	}
	if n.Stages() != 10 {
		t.Errorf("stages = %d", n.Stages())
	}
	hdr := headerDuration(n.Stages())
	if want := sim.SerializationTime(512, 25e9) + hdr; n.duration != want {
		t.Errorf("data wire time = %v, want %v", n.duration, want)
	}
	if want := sim.SerializationTime(32, 25e9) + hdr; n.ackDur != want {
		t.Errorf("ACK wire time = %v, want %v", n.ackDur, want)
	}
	if want := n.duration + 2*100*sim.Nanosecond + 10*sim.Nanoseconds(1.5); n.flight != want {
		t.Errorf("flight = %v, want %v", n.flight, want)
	}
	// Table V switch latency per multiplicity.
	for m, ns := range map[int]float64{1: 0.14, 2: 0.49, 3: 0.94, 4: 1.5, 5: 2.25} {
		in, err := Analytical(Config{Nodes: 64, Multiplicity: m})
		if err != nil {
			t.Fatal(err)
		}
		if in.PerStage != sim.Nanoseconds(ns) {
			t.Errorf("m=%d: switch latency %v, want %vns (Table V)", m, in.PerStage, ns)
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Nodes: 100}); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := New(Config{Nodes: 16, Multiplicity: -1}); err == nil {
		t.Error("negative multiplicity accepted")
	}
}

// TestRejectsValuesThatPanicMidRun covers the knobs whose bad values used to
// be accepted and then panic on the first transmit or timeout (or be
// silently ignored): New must refuse each one with an error.
func TestRejectsValuesThatPanicMidRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative nodes", Config{Nodes: -4}},
		{"negative link rate", Config{Nodes: 16, LinkRate: -25e9}},
		{"NaN link rate", Config{Nodes: 16, LinkRate: math.NaN()}},
		// 512 B at 1 Mbit/s holds a wire for 4 ms, past the 2^31 ps the
		// occupancy table's 32-bit offsets can reach.
		{"link rate too slow for the occupancy table", Config{Nodes: 16, LinkRate: 1e6}},
		{"negative RTO", Config{Nodes: 16, RTO: -5}},
		{"negative BEB slot", Config{Nodes: 16, BEBSlot: -1}},
		{"negative backoff exponent", Config{Nodes: 16, MaxBackoffExp: -1}},
		{"overflowing backoff exponent", Config{Nodes: 16, MaxBackoffExp: 63}},
		{"overflowing backoff window", Config{Nodes: 16, MaxBackoffExp: 62}},
		{"negative max attempts", Config{Nodes: 16, MaxAttempts: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("New panicked: %v", r)
				}
			}()
			if _, err := New(tc.cfg); err == nil {
				t.Errorf("New(%+v) accepted", tc.cfg)
			}
		})
	}
}

func TestSendPanicsOnBadNodes(t *testing.T) {
	n := mustNew(t, Config{Nodes: 16})
	defer func() {
		if recover() == nil {
			t.Error("Send out of range did not panic")
		}
	}()
	n.Send(0, 99, 0)
}

func TestSinglePacketZeroLoadLatency(t *testing.T) {
	// Zero-load latency: 100 ns in-link + 10 stages x 1.5 ns + 100 ns
	// out-link + 163.84 ns serialization + 0.5 ns routing header =
	// ~379.5 ns for the default 1,024-node m=4 network.
	n := mustNew(t, Config{})
	var got sim.Duration
	n.OnDeliver(func(_ int, p *netsim.Packet, at sim.Time) { got = at.Sub(p.Created) })
	n.Send(3, 900, 0)
	drain(t, n)
	wantLo, wantHi := sim.Nanoseconds(378), sim.Nanoseconds(381)
	if got < wantLo || got > wantHi {
		t.Errorf("zero-load latency = %v, want ~379.5ns", got)
	}
	if n.Stats.Delivered != 1 || n.Stats.DataDrops != 0 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestUncontendedStreamNoDrops(t *testing.T) {
	// A single source streaming to a single destination can never drop:
	// its own serialization spaces the packets.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 1, Seed: 5})
	var delivered int
	n.OnDeliver(func(int, *netsim.Packet, sim.Time) { delivered++ })
	for i := 0; i < 50; i++ {
		n.Send(1, 37, 0)
	}
	drain(t, n)
	if delivered != 50 {
		t.Errorf("delivered = %d, want 50", delivered)
	}
	if n.Stats.DataDrops != 0 {
		t.Errorf("drops = %d, want 0", n.Stats.DataDrops)
	}
}

func TestContentionDropsAndRetransmits(t *testing.T) {
	// Two sources blast the same destination simultaneously with m=1:
	// final-stage contention must drop packets, and retransmission must
	// eventually deliver every one exactly once.
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 2})
	var delivered int
	n.OnDeliver(func(int, *netsim.Packet, sim.Time) { delivered++ })
	for i := 0; i < 20; i++ {
		n.Send(0, 9, 0)
		n.Send(5, 9, 0)
	}
	drain(t, n)
	if delivered != 40 {
		t.Errorf("delivered = %d, want 40", delivered)
	}
	if n.Stats.DataDrops == 0 {
		t.Error("expected drops under 2:1 contention with m=1")
	}
	if n.Stats.Retransmissions == 0 {
		t.Error("expected retransmissions")
	}
	if n.Stats.Delivered != 40 {
		t.Errorf("unique deliveries = %d", n.Stats.Delivered)
	}
}

// TestOccupancyRebaseIsExact runs one contended burst at time 0 and, once it
// has drained, a second identical burst. The wire occupancy table holds
// 32-bit offsets from a base that traverse moves up once a traversal starts
// 2^31 ps past it, so the second burst starts right after the first, 2 µs
// before 2^31 ps (the base moves mid-burst, with wires reserved), 960 ns and
// 2.17 µs before it (the base moves inside a fabric epoch after traversals
// that, at K >= 2, still wait in the fabric's batch), at 2^31 ps,
// at 2^32 ps + 1 µs (where an offset that was never rebased wraps onto the
// first burst's reservations) and at 3·2^31 ps. The second burst must come
// out bit-identical whenever it starts and on any shard count: the same
// ledger, per-stage drops, latency sum and busy-wire counts as it runs.
func TestOccupancyRebaseIsExact(t *testing.T) {
	const (
		nodes   = 32
		drainBy = sim.Time(500 * sim.Microsecond) // the first burst drains long before this
	)
	type result struct {
		ledgerA, ledgerB netsim.Ledger
		dropsB           []uint64
		latencyB         sim.Duration
		busyB            []uint64
	}
	burst := func(n *Network) {
		for src := 0; src < nodes; src++ {
			for k := 0; k < 4; k++ {
				n.Send(src, (src+k)%4, 0)
			}
		}
	}
	run := func(shards int, start sim.Time) result {
		n := mustNew(t, Config{Nodes: nodes, Multiplicity: 1, Seed: 5, Shards: shards})
		// Deliveries run on their NIC's shard: one sum per shard.
		lat := make([]sim.Duration, n.NumShards())
		n.OnDeliver(func(sh int, p *netsim.Packet, at sim.Time) { lat[sh] += at.Sub(p.Created) })
		burst(n)
		if n.Run(drainBy) {
			t.Fatalf("first burst still running at %v", drainBy)
		}
		r := result{ledgerA: n.Ledger()}
		n.Run(start)
		clear(lat)
		burst(n)
		for _, at := range []sim.Duration{150, 450, 900, 2000} {
			n.Run(start.Add(at * sim.Nanosecond))
			r.busyB = append(r.busyB, n.busyWires(n.Engine().Now()))
		}
		if n.Run(start.Add(drainBy.Sub(0))) {
			t.Fatalf("second burst from %v still running %v later", start, drainBy)
		}
		r.ledgerB = n.Ledger()
		for _, l := range lat {
			r.latencyB += l
		}
		r.dropsB = append(r.dropsB, n.Stats.DropsByStage...)
		return r
	}
	want := run(1, drainBy)
	if want.ledgerB.DataDrops == want.ledgerA.DataDrops || want.busyB[0] == 0 {
		t.Fatalf("burst does not contend: ledgers %+v then %+v, busy wires %v", want.ledgerA, want.ledgerB, want.busyB)
	}
	for _, shards := range []int{1, 2, 3} {
		for _, start := range []sim.Time{
			drainBy,
			sim.Time(busyWindow - 2*sim.Microsecond),
			sim.Time(busyWindow - 960*sim.Nanosecond),
			sim.Time(busyWindow - 2170*sim.Nanosecond),
			sim.Time(busyWindow),
			sim.Time(2*busyWindow + sim.Microsecond),
			sim.Time(3 * busyWindow),
		} {
			if shards == 1 && start == drainBy {
				continue
			}
			got := run(shards, start)
			if got.ledgerA != want.ledgerA || got.ledgerB != want.ledgerB || got.latencyB != want.latencyB ||
				!slices.Equal(got.dropsB, want.dropsB) || !slices.Equal(got.busyB, want.busyB) {
				t.Errorf("K=%d: second burst from %v gave ledger %+v, drops %v, latency sum %v, busy wires %v; K=1 from %v: %+v, %v, %v, %v",
					shards, start, got.ledgerB, got.dropsB, got.latencyB, got.busyB, drainBy, want.ledgerB, want.dropsB, want.latencyB, want.busyB)
			}
		}
	}
}

// TestExactlyOnceDeliveryUnderHeavyLoss drives a hotspot at m=1, which drops
// data and ACKs massively, and requires the protocol to deliver every packet
// exactly once. Sequence numbers are per source, so a source spreading its
// packets over several destinations leaves gaps at each of them; the
// round-robin rows check that dedup does not depend on a receiver seeing a
// source's sequences densely. At K=3 the destination shard marks packets
// seen while their source shard writes the same packets' retry state.
func TestExactlyOnceDeliveryUnderHeavyLoss(t *testing.T) {
	const nodes, perNode = 32, 8
	for _, tc := range []struct {
		name  string
		dests []int // a source sends its k-th packet to dests[k % len(dests)]
	}{
		{"to_node0", []int{0}},
		{"round_robin4", []int{0, 8, 16, 24}},
	} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/K=%d", tc.name, shards), func(t *testing.T) {
				n := mustNew(t, Config{Nodes: nodes, Multiplicity: 1, Seed: 3, Shards: shards})
				// Counted per destination node: callbacks run on its shard.
				seen := make([]map[uint64]int, nodes)
				for i := range seen {
					seen[i] = map[uint64]int{}
				}
				n.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) { seen[p.Dst][p.ID]++ })
				want := 0
				for src := range nodes {
					if slices.Contains(tc.dests, src) {
						continue // the destinations do not send
					}
					want += perNode
					n.ScheduleNode(src, 0, sim.EventFunc(func() {
						for k := range perNode {
							n.Send(src, tc.dests[k%len(tc.dests)], 0)
						}
					}))
				}
				drain(t, n)
				got := 0
				for dst, ids := range seen {
					got += len(ids)
					for id, count := range ids {
						if count != 1 {
							t.Errorf("packet %d delivered %d times to node %d via OnDeliver", id, count, dst)
						}
					}
				}
				if got != want {
					t.Errorf("unique packets delivered = %d, want %d", got, want)
				}
				if q := n.Queued(); q != 0 {
					t.Errorf("%d events still queued after drain", q)
				}
				l := n.Ledger()
				if l.Delivered != l.Injected {
					t.Errorf("ledger after drain: delivered %d of %d injected", l.Delivered, l.Injected)
				}
				if l.Duplicates == 0 {
					t.Errorf("no duplicate copies arrived (%d retransmissions): dedup went unexercised", l.Retransmissions)
				}
			})
		}
	}
}

func TestDropRateFallsWithMultiplicity(t *testing.T) {
	// The Table V trend: drop rate collapses as multiplicity grows
	// (65.3% -> 0.3% from m=1 to m=4 in the paper's 1,024-node network).
	rates := make(map[int]float64)
	for _, m := range []int{1, 2, 4} {
		n := mustNew(t, Config{Nodes: 256, Multiplicity: m, Seed: 7})
		ol := traffic.OpenLoop{
			Pattern:        traffic.Transpose(256),
			Load:           0.7,
			PacketsPerNode: 50,
			Seed:           11,
		}
		ol.Start(n)
		drain(t, n)
		rates[m] = n.Stats.DataDropRate()
	}
	if !(rates[1] > rates[2] && rates[2] > rates[4]) {
		t.Errorf("drop rates not decreasing: %v", rates)
	}
	if rates[1] < 0.10 {
		t.Errorf("m=1 drop rate = %.3f, expected heavy dropping", rates[1])
	}
	if rates[4] > 0.02 {
		t.Errorf("m=4 drop rate = %.4f, want <2%%", rates[4])
	}
}

func TestRetransmissionBufferBounded(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 9})
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(64, 1),
		Load:           0.7,
		PacketsPerNode: 100,
		Seed:           13,
	}
	ol.Start(n)
	drain(t, n)
	// The paper provisions 1 MB per node and measures <=536 KB at 0.7
	// load; at this small scale the bound is far lower, but it must be
	// finite and modest.
	if n.Stats.MaxRetxBufBytes > 1<<20 {
		t.Errorf("retx buffer high-water = %d bytes, exceeds 1 MB", n.Stats.MaxRetxBufBytes)
	}
	if n.Stats.MaxRetxBufBytes == 0 {
		t.Error("retx buffer never used")
	}
}

func TestDisableRetransmitCountsLosses(t *testing.T) {
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 4, DisableRetransmit: true})
	var delivered int
	n.OnDeliver(func(int, *netsim.Packet, sim.Time) { delivered++ })
	for i := 0; i < 10; i++ {
		n.Send(0, 9, 0)
		n.Send(5, 9, 0)
	}
	drain(t, n)
	if n.Stats.Retransmissions != 0 {
		t.Error("retransmissions occurred with protocol disabled")
	}
	if delivered+int(n.Stats.DataDrops) != 20 {
		t.Errorf("delivered %d + drops %d != attempts 20", delivered, n.Stats.DataDrops)
	}
	if n.Stats.DataDrops == 0 {
		t.Error("expected losses")
	}
}

func TestBEBReducesDropsUnderHotspot(t *testing.T) {
	// Without BEB a hotspot can enter self-sustaining congestion
	// collapse: the retransmission storm toward the hot node saturates
	// the shared prefix of the funnel, which also kills the ACKs headed
	// to senders under that prefix, so the storm never thins (we observed
	// unique deliveries freezing entirely). The comparison therefore runs
	// to a fixed horizon rather than to drain.
	run := func(disable bool) (delivered uint64, dropRate float64) {
		n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 21, DisableBEB: disable})
		ol := traffic.OpenLoop{
			Pattern:        traffic.Hotspot(64, 0),
			Load:           0.7,
			PacketsPerNode: 20,
			Seed:           17,
		}
		ol.Start(n)
		n.Run(sim.Time(400 * sim.Microsecond))
		return n.Stats.Delivered, n.Stats.DataDropRate()
	}
	withDel, withRate := run(false)
	withoutDel, withoutRate := run(true)
	if withRate >= withoutRate {
		t.Errorf("BEB did not reduce drop rate: with=%.3f without=%.3f", withRate, withoutRate)
	}
	if withDel <= withoutDel {
		t.Errorf("BEB did not improve goodput: with=%d without=%d", withDel, withoutDel)
	}
	// With BEB the whole hotspot workload must drain within the horizon.
	if withDel != 63*20 {
		t.Errorf("BEB run delivered %d of %d", withDel, 63*20)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		n := mustNew(t, Config{Nodes: 128, Multiplicity: 2, Seed: 33})
		var c netsim.Collector
		c.Attach(n)
		ol := traffic.OpenLoop{
			Pattern:        traffic.Bisection(128, 3),
			Load:           0.6,
			PacketsPerNode: 40,
			Seed:           5,
		}
		ol.Start(n)
		drain(t, n)
		return n.Stats.DataDrops, n.Stats.Retransmissions, c.AvgNS()
	}
	d1, r1, a1 := run()
	d2, r2, a2 := run()
	if d1 != d2 || r1 != r2 || a1 != a2 {
		t.Errorf("runs diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, r1, a1, d2, r2, a2)
	}
}

func TestDropsByStageAccounting(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 1, Seed: 8})
	ol := traffic.OpenLoop{
		Pattern:        traffic.Transpose(64),
		Load:           0.9,
		PacketsPerNode: 40,
		Seed:           2,
	}
	ol.Start(n)
	drain(t, n)
	var sum uint64
	for _, v := range n.Stats.DropsByStage {
		sum += v
	}
	if sum != n.Stats.DataDrops+n.Stats.AckDrops {
		t.Errorf("per-stage drops %d != total %d", sum, n.Stats.DataDrops+n.Stats.AckDrops)
	}
}

func TestCollectorLatencyUnderLoad(t *testing.T) {
	// At 0.7 load on random permutation the average latency must stay in
	// the sub-microsecond regime (the paper's Fig 6 shows ~0.4-0.7 us)
	// and above the zero-load floor.
	n := mustNew(t, Config{Nodes: 256, Seed: 12})
	var c netsim.Collector
	c.Attach(n)
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(256, 9),
		Load:           0.7,
		PacketsPerNode: 60,
		Seed:           3,
	}
	ol.Start(n)
	drain(t, n)
	if c.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	avg := c.AvgNS()
	if avg < 370 {
		t.Errorf("avg latency %v ns below physical floor", avg)
	}
	if avg > 2000 {
		t.Errorf("avg latency %v ns: Baldur should stay sub-2us at 0.7 load", avg)
	}
	if tail := c.TailNS(); tail < avg {
		t.Errorf("tail %v < avg %v", tail, avg)
	}
}

func TestHeaderDuration(t *testing.T) {
	// 10 stages x 3T = 10 x 50 ps = 0.5 ns.
	if got := headerDuration(10); got != 500*sim.Picosecond {
		t.Errorf("headerDuration(10) = %v", got)
	}
}

// TestNICQueueReclaimsConsumedPrefix holds a backlog of one packet across
// 10,000 push/pop pairs, the pattern of a saturated NIC whose queue never
// drains: qback must stay a few slots long, and packets must still leave in
// arrival order.
func TestNICQueueReclaimsConsumedPrefix(t *testing.T) {
	var c nic
	pkts := make([]netsim.Packet, 10_001)
	for i := range pkts {
		pkts[i].ID = uint64(i)
	}
	c.pushBack(&pkts[0])
	for i := 1; i < len(pkts); i++ {
		c.pushBack(&pkts[i])
		if got := c.peekFront().ID; got != uint64(i-1) {
			t.Fatalf("pop %d: head is packet %d, want %d", i, got, i-1)
		}
		c.popFront()
	}
	if c.queueLen() != 1 || cap(c.qback) > 64 {
		t.Errorf("backlog %d in a qback of cap %d, want 1 in at most 64", c.queueLen(), cap(c.qback))
	}
}
