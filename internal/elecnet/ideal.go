package elecnet

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// Ideal is the paper's reference network: infinite bandwidth and a flat
// packet latency of 200 ns, regardless of traffic. It runs on the shared
// shard runtime as a single shard, and is deliberately neither instrumented
// nor audited. Its ScheduleNode keeps the engine's FIFO path and its packet
// IDs a network-wide counter, so dispatch order is plain scheduling order.
type Ideal struct {
	netsim.Shards

	sh      netsim.Shard
	nodes   int
	latency sim.Duration
	nextID  uint64
	evFree  *idealEvent

	// NetStats holds Injected and Delivered; nothing is ever dropped.
	NetStats
}

// idealEvent is the pooled delivery event of one in-flight packet, which
// lives in it by value: the event and its packet are recycled together once
// the delivery callbacks return.
type idealEvent struct {
	n    *Ideal
	p    netsim.Packet
	next *idealEvent
}

func (ev *idealEvent) Run(e *sim.Engine) {
	n := ev.n
	n.Deliver(&n.sh, &ev.p, e.Now())
	ev.next = n.evFree
	n.evFree = ev
}

// NewIdeal builds an ideal network with the given node count. Latency 0
// selects the paper's 200 ns.
func NewIdeal(nodes int, latency sim.Duration) *Ideal {
	if latency == 0 {
		latency = IdealLatency
	}
	n := &Ideal{nodes: nodes, latency: latency}
	n.Shards = netsim.NewShards(latency, &n.NetStats, nil, &n.sh)
	return n
}

// NumNodes returns the node count.
func (n *Ideal) NumNodes() int { return n.nodes }

// NodeShard returns 0, the only shard.
func (n *Ideal) NodeShard(int) int { return 0 }

// ScheduleNode schedules ev at t on the engine's FIFO path: with one shard
// and no per-node actors, scheduling order is the tie-break.
func (n *Ideal) ScheduleNode(_ int, t sim.Time, ev sim.Event) { n.sh.Sim.Eng.Schedule(t, ev) }

// Send delivers the packet exactly 200 ns later, no queueing, no drops.
func (n *Ideal) Send(src, dst, size int) *netsim.Packet {
	n.nextID++
	eng := n.sh.Sim.Eng
	ev := n.evFree
	if ev != nil {
		n.evFree = ev.next
	} else {
		ev = &idealEvent{n: n}
	}
	ev.p = netsim.Packet{ID: n.nextID, Src: src, Dst: dst, Size: size, Created: eng.Now()}
	n.sh.Inject(&ev.p)
	eng.ScheduleAfter(n.latency, ev)
	return &ev.p
}
