package traffic

import (
	"testing"

	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// drain runs n until no event remains, failing t if a second of virtual
// time does not suffice.
func drain(t *testing.T, n netsim.Network) {
	t.Helper()
	if n.Run(sim.Time(sim.Second)) {
		t.Fatal("events still queued after 1 s of virtual time")
	}
}

func TestOpenLoopInjectionCountAndSpacing(t *testing.T) {
	net := elecnet.NewIdeal(16, 0)
	var created []sim.Time
	var horizon sim.Time // the last delivery
	net.OnDeliver(func(_ int, p *netsim.Packet, at sim.Time) {
		created = append(created, p.Created)
		horizon = at
	})
	ol := OpenLoop{
		Pattern:        Hotspot(16, 0),
		Load:           0.5,
		PacketsPerNode: 20,
		Seed:           4,
	}
	ol.Start(net)
	drain(t, net)
	// 15 transmitting nodes x 20 packets.
	if len(created) != 300 {
		t.Fatalf("injected %d, want 300", len(created))
	}
	// Mean inter-arrival per node should be near Eq 1's value: with 20
	// packets per node over an exponential process the aggregate horizon
	// is roughly 20 x mean.
	mean := MeanInterval(512, 0.5, 25e9)
	expect := sim.Time(20 * mean)
	if horizon < expect/2 || horizon > expect*3 {
		t.Errorf("injection horizon %v, expected around %v", horizon, expect)
	}
}

func TestOpenLoopSkipsIdleNodes(t *testing.T) {
	net := elecnet.NewIdeal(8, 0)
	count := 0
	net.OnDeliver(func(int, *netsim.Packet, sim.Time) { count++ })
	pat := &Pattern{Name: "partial", Dest: []int{1, -1, -1, -1, -1, -1, -1, 0}}
	ol := OpenLoop{Pattern: pat, Load: 0.9, PacketsPerNode: 5, Seed: 1}
	ol.Start(net)
	drain(t, net)
	if count != 10 {
		t.Errorf("delivered %d, want 10 (only two active nodes)", count)
	}
}

func TestOpenLoopDefaultsApplied(t *testing.T) {
	net := elecnet.NewIdeal(4, 0)
	var size int
	net.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) { size = p.Size })
	ol := OpenLoop{Pattern: Hotspot(4, 0), Load: 0.5, PacketsPerNode: 1, Seed: 1}
	ol.Start(net)
	drain(t, net)
	if size != 512 {
		t.Errorf("default packet size = %d, want 512", size)
	}
}

func TestPingPongAlternation(t *testing.T) {
	// On the ideal network a ping-pong pair exchanges exactly 2*Rounds
	// packets, strictly alternating in time per pair.
	net := elecnet.NewIdeal(4, 0)
	var seq []int
	net.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) {
		if p.Src == 0 || p.Dst == 0 {
			seq = append(seq, p.Src)
		}
	})
	pat := &Pattern{Name: "pairs", Dest: []int{1, 0, 3, 2}}
	pp := PingPong{Pattern: pat, Rounds: 10}
	pp.Start(net)
	drain(t, net)
	if len(seq) != 20 {
		t.Fatalf("pair 0-1 exchanged %d packets, want 20", len(seq))
	}
}

func TestPingPongTotalCount(t *testing.T) {
	net := elecnet.NewIdeal(64, 0)
	count := 0
	net.OnDeliver(func(int, *netsim.Packet, sim.Time) { count++ })
	pp := PingPong{Pattern: PingPongPairs1(64, 2), Rounds: 7}
	pp.Start(net)
	drain(t, net)
	if count != 64*7 {
		t.Errorf("delivered %d, want %d", count, 64*7)
	}
}

func TestPingPongPacketSize(t *testing.T) {
	net := elecnet.NewIdeal(4, 0)
	var size int
	net.OnDeliver(func(_ int, p *netsim.Packet, _ sim.Time) { size = p.Size })
	pat := &Pattern{Name: "pairs", Dest: []int{1, 0, -1, -1}}
	pp := PingPong{Pattern: pat, Rounds: 1}
	pp.Start(net)
	drain(t, net)
	if size != 512 {
		t.Errorf("packet size = %d, want 512", size)
	}
}

func TestPatternNodes(t *testing.T) {
	if got := Hotspot(17, 3).Nodes(); got != 17 {
		t.Errorf("Nodes = %d", got)
	}
}

// TestOpenLoopSpecReuse pins the fix for Start mutating its receiver: an
// OpenLoop value reused across cells drives run 2 exactly like run 1 and the
// spec itself is left untouched between runs.
func TestOpenLoopSpecReuse(t *testing.T) {
	run := func(o *OpenLoop) (delivered uint64, last sim.Time) {
		net := elecnet.NewIdeal(16, 0)
		var lastAt sim.Time
		var count uint64
		net.OnDeliver(func(_ int, p *netsim.Packet, at sim.Time) {
			count++
			if at > lastAt {
				lastAt = at
			}
		})
		o.Pattern = RandomPermutation(net.NumNodes(), 7)
		o.Start(net)
		drain(t, net)
		return count, lastAt
	}

	spec := OpenLoop{Load: 0.5, PacketsPerNode: 20, Seed: 3}
	before := spec
	d1, t1 := run(&spec)
	d2, t2 := run(&spec)
	if d1 != d2 || t1 != t2 {
		t.Fatalf("reused spec diverged: run1 delivered=%d last=%v, run2 delivered=%d last=%v", d1, t1, d2, t2)
	}
	spec.Pattern = before.Pattern
	if spec != before {
		t.Fatalf("spec changed across runs: %+v -> %+v", before, spec)
	}
}
