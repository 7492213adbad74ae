package elecnet

import (
	"maps"
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// drainCheck runs a workload on a network and asserts lossless exactly-once
// delivery of every injected packet.
func drainCheck(t *testing.T, net netsim.Network, injected func() uint64, delivered func() uint64) {
	t.Helper()
	drain(t, net)
	if injected() != delivered() {
		t.Fatalf("injected %d != delivered %d (lossless network lost packets)", injected(), delivered())
	}
}

// drain runs n until no event remains, failing t if a second of virtual
// time does not suffice.
func drain(t *testing.T, n netsim.Network) {
	t.Helper()
	if n.Run(sim.Time(sim.Second)) {
		t.Fatal("events still queued after 1 s of virtual time")
	}
}

// TestIdealIsUninstrumented guards the shard runtime's promotion boundary:
// the ideal network embeds netsim.Shards, which must not lend it the
// telemetry or audit surface the buffered networks declare themselves.
func TestIdealIsUninstrumented(t *testing.T) {
	var ideal netsim.Network = NewIdeal(4, 0)
	if _, ok := ideal.(netsim.Instrumented); ok {
		t.Error("*Ideal implements netsim.Instrumented")
	}
	if _, ok := ideal.(netsim.Audited); ok {
		t.Error("*Ideal implements netsim.Audited")
	}
	mb, err := NewMultiButterfly(MBConfig{Nodes: 16, Multiplicity: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buffered netsim.Network = mb
	if _, ok := buffered.(netsim.Instrumented); !ok {
		t.Error("*MultiButterfly lost netsim.Instrumented")
	}
	if _, ok := buffered.(netsim.Audited); !ok {
		t.Error("*MultiButterfly lost netsim.Audited")
	}
}

func TestIdealFlatLatency(t *testing.T) {
	n := NewIdeal(64, 0)
	var lat []sim.Duration
	n.OnDeliver(func(_ int, p *netsim.Packet, at sim.Time) { lat = append(lat, at.Sub(p.Created)) })
	n.Send(0, 1, 512)
	n.Send(5, 9, 512)
	n.ScheduleNode(3, 1000, sim.EventFunc(func() { n.Send(3, 4, 512) }))
	drain(t, n)
	if len(lat) != 3 {
		t.Fatalf("delivered %d", len(lat))
	}
	for _, d := range lat {
		if d != 200*sim.Nanosecond {
			t.Errorf("latency = %v, want 200ns", d)
		}
	}
}

func TestMBZeroLoadLatency(t *testing.T) {
	n, err := NewMultiButterfly(MBConfig{Nodes: 1024, Multiplicity: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Duration
	n.OnDeliver(func(_ int, p *netsim.Packet, at sim.Time) { got = at.Sub(p.Created) })
	n.Send(17, 901, 0)
	drain(t, n)
	// 100 ns host link + 10 x (90 ns router + serialization overlap...) —
	// VCT: head moves at 90ns+10ns per stage; last bit = head + 163.84.
	// Expect: 100 + 10*90 + 9*10 + 100 + 163.84 ~= 1354 ns.
	lo, hi := sim.Nanoseconds(1300), sim.Nanoseconds(1450)
	if got < lo || got > hi {
		t.Errorf("zero-load latency = %v, want ~1354ns", got)
	}
	if n.Delivered != 1 {
		t.Errorf("delivered = %d", n.Delivered)
	}
}

func TestMBLosslessUnderLoad(t *testing.T) {
	n, err := NewMultiButterfly(MBConfig{Nodes: 128, Multiplicity: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ol := traffic.OpenLoop{
		Pattern:        traffic.Transpose(128),
		Load:           0.8,
		PacketsPerNode: 50,
		Seed:           7,
	}
	ol.Start(n)
	drainCheck(t, n, func() uint64 { return n.Injected }, func() uint64 { return n.Delivered })
}

func TestMBHotspotBacklogsButDelivers(t *testing.T) {
	n, err := NewMultiButterfly(MBConfig{Nodes: 64, Multiplicity: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var c netsim.Collector
	c.Attach(n)
	ol := traffic.OpenLoop{
		Pattern:        traffic.Hotspot(64, 0),
		Load:           0.5,
		PacketsPerNode: 10,
		Seed:           9,
	}
	ol.Start(n)
	drainCheck(t, n, func() uint64 { return n.Injected }, func() uint64 { return n.Delivered })
	// 63 senders funneling into one ejection point: queueing must push
	// average latency well above zero-load.
	if c.AvgNS() < 3000 {
		t.Errorf("hotspot avg latency %v ns suspiciously low", c.AvgNS())
	}
}

func TestDragonflyGeometry(t *testing.T) {
	n, err := NewDragonfly(DragonflyConfig{P: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, a, h, g := n.Params()
	if p != 4 || a != 8 || h != 4 || g != 33 {
		t.Errorf("params = %d %d %d %d, want 4 8 4 33", p, a, h, g)
	}
	if n.NumNodes() != 1056 {
		t.Errorf("nodes = %d, want 1056", n.NumNodes())
	}
	if n.Radix() != 15 {
		t.Errorf("radix = %d, want 15", n.Radix())
	}
	if DragonflyNodes(4) != 1056 {
		t.Errorf("DragonflyNodes(4) = %d", DragonflyNodes(4))
	}
}

func TestDragonflyAllPairsSmall(t *testing.T) {
	// p=1: a=2, h=1, g=3, 6 nodes. Exhaustively verify delivery between
	// every pair.
	n, err := NewDragonfly(DragonflyConfig{P: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 6 {
		t.Fatalf("nodes = %d", n.NumNodes())
	}
	type key struct{ src, dst int }
	got := map[key]int{}
	n.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) { got[key{p.Src, p.Dst}]++ })
	want := 0
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if s != d {
				n.Send(s, d, 0)
				want++
			}
		}
	}
	drain(t, n)
	if len(got) != want {
		t.Fatalf("delivered %d pairs, want %d", len(got), want)
	}
	for k, c := range got {
		if c != 1 {
			t.Errorf("pair %v delivered %d times", k, c)
		}
	}
}

func TestDragonflyLosslessUnderLoad(t *testing.T) {
	n, err := NewDragonfly(DragonflyConfig{P: 2, Seed: 4}) // 4*2*9=72 nodes... a=4,h=2,g=9: 4*2*9=72
	if err != nil {
		t.Fatal(err)
	}
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(n.NumNodes(), 6),
		Load:           0.6,
		PacketsPerNode: 60,
		Seed:           8,
	}
	ol.Start(n)
	drainCheck(t, n, func() uint64 { return n.Injected }, func() uint64 { return n.Delivered })
	if n.MaxHops > 6 {
		t.Errorf("max hops = %d, want <= 6 (l-g-l-g-l plus edge)", n.MaxHops)
	}
}

func TestDragonflyAdversarialUsesValiant(t *testing.T) {
	// Group permutation concentrates all of a group's traffic on one
	// global channel: UGAL must divert some packets via intermediate
	// groups (hops > 4 indicates Valiant paths taken).
	n, err := NewDragonfly(DragonflyConfig{P: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ap := n.p * n.a // nodes per group
	ol := traffic.OpenLoop{
		Pattern:        traffic.GroupPermutation(n.NumNodes(), ap, 3),
		Load:           0.7,
		PacketsPerNode: 50,
		Seed:           5,
	}
	ol.Start(n)
	drainCheck(t, n, func() uint64 { return n.Injected }, func() uint64 { return n.Delivered })
	if n.MaxHops <= 3 {
		t.Errorf("max hops = %d; expected Valiant paths under adversarial load", n.MaxHops)
	}
}

func TestFatTreeGeometry(t *testing.T) {
	n, err := NewFatTree(FatTreeConfig{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 1024 {
		t.Errorf("nodes = %d, want 1024", n.NumNodes())
	}
	if FatTreeNodes(16) != 1024 || FatTreeNodes(4) != 16 {
		t.Error("FatTreeNodes wrong")
	}
	if _, err := NewFatTree(FatTreeConfig{K: 5}); err == nil {
		t.Error("odd k accepted")
	}
}

func TestFatTreeAllPairsSmall(t *testing.T) {
	n, err := NewFatTree(FatTreeConfig{K: 4}) // 16 hosts
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ src, dst int }
	got := map[key]int{}
	n.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) { got[key{p.Src, p.Dst}]++ })
	want := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				n.Send(s, d, 0)
				want++
			}
		}
	}
	drain(t, n)
	if len(got) != want {
		t.Fatalf("delivered %d pairs, want %d", len(got), want)
	}
}

func TestFatTreeZeroLoadLatency(t *testing.T) {
	n, err := NewFatTree(FatTreeConfig{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	var sameEdge, crossPod sim.Duration
	n.OnDeliver(func(_ int, p *netsim.Packet, at sim.Time) {
		if p.Dst == 1 {
			sameEdge = at.Sub(p.Created)
		} else {
			crossPod = at.Sub(p.Created)
		}
	})
	n.Send(0, 1, 0)    // same edge switch
	n.Send(2, 1000, 0) // cross pod, distinct source NIC
	drain(t, n)
	// Same edge: 10 + 90 + 10 + 163.84 = ~274 ns.
	if sameEdge < sim.Nanoseconds(270) || sameEdge > sim.Nanoseconds(280) {
		t.Errorf("same-edge latency = %v, want ~274ns", sameEdge)
	}
	// Cross pod: 5 routers x 90 + links (10+50+100+100+50+10) + 163.84
	// = ~934 ns.
	if crossPod < sim.Nanoseconds(920) || crossPod > sim.Nanoseconds(950) {
		t.Errorf("cross-pod latency = %v, want ~934ns", crossPod)
	}
}

func TestFatTreeLosslessUnderLoad(t *testing.T) {
	n, err := NewFatTree(FatTreeConfig{K: 8}) // 128 hosts
	if err != nil {
		t.Fatal(err)
	}
	ol := traffic.OpenLoop{
		Pattern:        traffic.Bisection(128, 2),
		Load:           0.7,
		PacketsPerNode: 60,
		Seed:           4,
	}
	ol.Start(n)
	drainCheck(t, n, func() uint64 { return n.Injected }, func() uint64 { return n.Delivered })
	if n.MaxHops > 5 {
		t.Errorf("max hops = %d, want <= 5", n.MaxHops)
	}
}

func TestCreditConservation(t *testing.T) {
	// After a full drain every output port must have its credits fully
	// restocked: no slot leaks.
	n, err := NewMultiButterfly(MBConfig{Nodes: 64, Multiplicity: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(64, 12),
		Load:           0.7,
		PacketsPerNode: 30,
		Seed:           13,
	}
	ol.Start(n)
	drain(t, n)
	per := int32(n.slotsPerVC())
	for ri := range n.routers {
		r := &n.routers[ri]
		for pi := range r.out {
			port := &r.out[pi]
			if port.node >= 0 || port.peer < 0 {
				continue
			}
			for vc, c := range n.creditVec(port.cred) {
				if c != per {
					t.Fatalf("router %d port %d vc %d: credits %d != %d after drain",
						r.id, pi, vc, c, per)
				}
			}
			if port.queueLen() != 0 {
				t.Fatalf("router %d port %d: queue not drained", r.id, pi)
			}
		}
	}
	for ni := range n.nics {
		nic := &n.nics[ni]
		for vc, c := range n.creditVec(nic.cred) {
			if c != per {
				t.Fatalf("nic %d vc %d: credits %d != %d", nic.id, vc, c, per)
			}
		}
	}
}

func TestDeterministicElecNets(t *testing.T) {
	run := func() float64 {
		n, _ := NewDragonfly(DragonflyConfig{P: 2, Seed: 42})
		var c netsim.Collector
		c.Attach(n)
		ol := traffic.OpenLoop{
			Pattern:        traffic.RandomPermutation(n.NumNodes(), 1),
			Load:           0.5,
			PacketsPerNode: 30,
			Seed:           2,
		}
		ol.Start(n)
		drain(t, n)
		return c.AvgNS()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %v vs %v", a, b)
	}
}

func TestSendValidation(t *testing.T) {
	n, _ := NewFatTree(FatTreeConfig{K: 4})
	defer func() {
		if recover() == nil {
			t.Error("bad Send did not panic")
		}
	}()
	n.Send(0, 99, 0)
}

// linkDelays returns the distinct delays of a network's links, split into
// host attachments (NIC injection and ejection) and router-to-router links.
func linkDelays(n *engine) (host, fabric map[sim.Duration]bool) {
	host, fabric = map[sim.Duration]bool{}, map[sim.Duration]bool{}
	for ri := range n.routers {
		for _, port := range n.routers[ri].out {
			switch {
			case port.peer >= 0:
				fabric[port.linkDelay] = true
			case port.node >= 0:
				host[port.linkDelay] = true
			}
		}
	}
	for ni := range n.nics {
		host[n.nics[ni].linkDelay] = true
	}
	return host, fabric
}

// TestTableVIConstants pins the electrical baselines to the paper's Table VI
// configuration on built networks: a silent edit to any router, buffer, VC
// or link constant must fail here.
func TestTableVIConstants(t *testing.T) {
	if RouterLatency != 90*sim.Nanosecond || bufferBytes != 24*1024 {
		t.Errorf("router latency %v, buffer %d B; want 90ns, 24 KB", RouterLatency, bufferBytes)
	}
	if IdealLatency != 200*sim.Nanosecond || NewIdeal(4, 0).latency != 200*sim.Nanosecond {
		t.Errorf("ideal latency %v, want 200ns", IdealLatency)
	}
	ns := func(v ...int) map[sim.Duration]bool {
		m := map[sim.Duration]bool{}
		for _, d := range v {
			m[sim.Duration(d)*sim.Nanosecond] = true
		}
		return m
	}
	mb, err := NewMultiButterfly(MBConfig{Nodes: 16, Multiplicity: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(DragonflyConfig{P: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		net          *engine
		vcs          int
		host, fabric map[sim.Duration]bool
	}{
		{mb.engine, 3, ns(100), ns(10)},
		{df.engine, 7, ns(10), ns(10, 100)},
		{ft.engine, 5, ns(10), ns(50, 100)},
	} {
		if tc.net.vcs != tc.vcs {
			t.Errorf("%s: %d VCs, want %d", tc.net.name, tc.net.vcs, tc.vcs)
		}
		if want := 24 * 1024 / tc.vcs / 512; tc.net.slotsPerVC() != want {
			t.Errorf("%s: %d slots per VC, want %d", tc.net.name, tc.net.slotsPerVC(), want)
		}
		host, fabric := linkDelays(tc.net)
		if !maps.Equal(host, tc.host) || !maps.Equal(fabric, tc.fabric) {
			t.Errorf("%s: host links %v, fabric links %v; want %v, %v",
				tc.net.name, host, fabric, tc.host, tc.fabric)
		}
	}
	// The dragonfly's local and global links are both in its fabric set;
	// tell them apart through the constants.
	if dragonflyLocalLink != 10*sim.Nanosecond || dragonflyGlobalLink != 100*sim.Nanosecond {
		t.Errorf("dragonfly local/global links %v/%v, want 10ns/100ns", dragonflyLocalLink, dragonflyGlobalLink)
	}
	if FatTreeAggDelay != 50*sim.Nanosecond || FatTreeCoreDelay != 100*sim.Nanosecond {
		t.Errorf("fat-tree agg/core links %v/%v, want 50ns/100ns", FatTreeAggDelay, FatTreeCoreDelay)
	}
}
