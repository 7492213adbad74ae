package elecnet

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// Ideal is the paper's reference network: infinite bandwidth and a flat
// packet latency of 200 ns, regardless of traffic.
type Ideal struct {
	eng       *sim.Engine
	nodes     int
	latency   sim.Duration
	onDeliver []func(*netsim.Packet, sim.Time)
	nextID    uint64
	evFree    *idealEvent

	// NetStats holds Injected and Delivered; nothing is ever dropped.
	NetStats
}

// idealEvent is the pooled delivery event of one in-flight packet.
type idealEvent struct {
	n    *Ideal
	p    *netsim.Packet
	next *idealEvent
}

func (ev *idealEvent) Run(e *sim.Engine) {
	n, p := ev.n, ev.p
	ev.p = nil
	ev.next = n.evFree
	n.evFree = ev
	n.Delivered++
	at := e.Now()
	for _, fn := range n.onDeliver {
		fn(p, at)
	}
}

// NewIdeal builds an ideal network with the given node count. Latency 0
// selects the paper's 200 ns.
func NewIdeal(nodes int, latency sim.Duration) *Ideal {
	if latency == 0 {
		latency = 200 * sim.Nanosecond
	}
	return &Ideal{eng: sim.NewEngine(), nodes: nodes, latency: latency}
}

// Engine returns the simulation engine.
func (n *Ideal) Engine() *sim.Engine { return n.eng }

// NumNodes returns the node count.
func (n *Ideal) NumNodes() int { return n.nodes }

// OnDeliver registers a delivery callback.
func (n *Ideal) OnDeliver(fn func(p *netsim.Packet, at sim.Time)) {
	n.onDeliver = append(n.onDeliver, fn)
}

// Ledger returns the injected and delivered counts (netsim.Network).
func (n *Ideal) Ledger() netsim.Ledger { return n.NetStats }

// Run dispatches every event up to and including deadline and reports
// whether events remain (netsim.Network). The ideal network is one shard.
func (n *Ideal) Run(deadline sim.Time) bool { return n.eng.RunUntil(deadline) }

// Events returns the number of dispatched events.
func (n *Ideal) Events() uint64 { return n.eng.Executed }

// Epochs returns 0: a single shard has no barriers.
func (n *Ideal) Epochs() uint64 { return 0 }

// NumShards returns 1.
func (n *Ideal) NumShards() int { return 1 }

// NodeShard returns 0, the only shard.
func (n *Ideal) NodeShard(int) int { return 0 }

// ScheduleNode schedules ev at t on the engine's FIFO path: with one shard
// and no per-node actors, scheduling order is the tie-break.
func (n *Ideal) ScheduleNode(_ int, t sim.Time, ev sim.Event) { n.eng.Schedule(t, ev) }

// Send delivers the packet exactly 200 ns later, no queueing, no drops.
func (n *Ideal) Send(src, dst, size int) *netsim.Packet {
	n.nextID++
	p := &netsim.Packet{ID: n.nextID, Src: src, Dst: dst, Size: size, Created: n.eng.Now()}
	n.Injected++
	ev := n.evFree
	if ev != nil {
		n.evFree = ev.next
	} else {
		ev = &idealEvent{n: n}
	}
	ev.p = p
	n.eng.ScheduleAfter(n.latency, ev)
	return p
}
