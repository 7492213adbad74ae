package core

import (
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

func TestExactlyOnceDeliveryUnderHeavyLoss(t *testing.T) {
	// Hotspot with m=1 produces massive drops (data and ACK); the
	// protocol must still deliver every packet exactly once.
	n := mustNew(t, Config{Nodes: 32, Multiplicity: 1, Seed: 3})
	seen := map[uint64]int{}
	n.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) { seen[p.ID]++ })
	const perNode = 5
	for src := 1; src < 32; src++ {
		for k := 0; k < perNode; k++ {
			n.Send(src, 0, 0)
		}
	}
	drain(t, n)
	want := 31 * perNode
	if len(seen) != want {
		t.Fatalf("unique packets delivered = %d, want %d", len(seen), want)
	}
	for id, count := range seen {
		if count != 1 {
			t.Errorf("packet %d delivered %d times via OnDeliver", id, count)
		}
	}
	if q := n.Queued(); q != 0 {
		t.Errorf("%d events still queued after drain", q)
	}
	if l := n.Ledger(); l.Delivered != l.Injected {
		t.Errorf("ledger after drain: delivered %d of %d injected", l.Delivered, l.Injected)
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

func TestSeqTracker(t *testing.T) {
	var tr seqTracker
	if !tr.record(0) || !tr.record(1) {
		t.Error("fresh seqs rejected")
	}
	if tr.record(1) {
		t.Error("duplicate accepted")
	}
	if !tr.record(5) {
		t.Error("out-of-order fresh seq rejected")
	}
	if tr.record(5) {
		t.Error("out-of-order duplicate accepted")
	}
	if !tr.record(2) || !tr.record(3) || !tr.record(4) {
		t.Error("gap fill rejected")
	}
	// After compaction next should be 6: 5 was recorded as extra.
	if tr.next != 6 {
		t.Errorf("next = %d, want 6", tr.next)
	}
	if len(tr.extras) != 0 {
		t.Errorf("extras not compacted: %v", tr.extras)
	}
}

func TestHeaderDuration(t *testing.T) {
	// 10 stages x 3T = 10 x 50 ps = 0.5 ns.
	if got := headerDuration(10); got != 500*sim.Picosecond {
		t.Errorf("headerDuration(10) = %v", got)
	}
}

func TestSeqTrackerDuplicateAfterRetransmit(t *testing.T) {
	// The protocol's real duplicate source: a timeout fires before the ACK
	// returns, the retransmitted copy arrives after the original, and the
	// receiver must reject the second copy whether the sequence has been
	// compacted into next or still sits in the extras spill.
	var tr seqTracker
	if !tr.record(0) || !tr.record(1) {
		t.Fatal("fresh in-order seqs rejected")
	}
	if tr.record(0) {
		t.Error("retransmitted copy of a compacted seq accepted")
	}
	if !tr.record(3) {
		t.Fatal("fresh out-of-order seq rejected")
	}
	if tr.record(3) {
		t.Error("retransmitted copy of a spilled seq accepted")
	}
	if !tr.record(2) {
		t.Fatal("gap fill rejected")
	}
	// 2 and 3 are now compacted (next == 4); both copies must still be
	// duplicates through the seq < next path.
	if tr.next != 4 {
		t.Fatalf("next = %d after compaction, want 4", tr.next)
	}
	if tr.record(2) || tr.record(3) {
		t.Error("retransmitted copy accepted after compaction moved it into next")
	}
}

func TestSeqTrackerWraparoundAdjacent(t *testing.T) {
	// Sequences adjacent to the uint64 wraparound point arrive as spilled
	// extras (next stays 0); dedup must hold without the next counter
	// overflowing past them.
	const top = ^uint64(0)
	var tr seqTracker
	if !tr.record(top-1) || !tr.record(top) {
		t.Fatal("fresh near-max seqs rejected")
	}
	if tr.record(top-1) || tr.record(top) {
		t.Error("duplicate near-max seq accepted")
	}
	if tr.next != 0 {
		t.Errorf("next = %d, want 0 (near-max seqs must spill, not compact)", tr.next)
	}
	if !tr.record(0) {
		t.Error("seq 0 rejected with near-max extras pending")
	}
	if tr.record(0) {
		t.Error("duplicate seq 0 accepted")
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
