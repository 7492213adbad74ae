package core

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// coreEvent is the pooled payload of every per-packet event the Baldur
// model schedules: the backoff-delayed transmit, the head-of-packet network
// traversal, the retransmission timeout and the destination receive. One
// struct with a kind tag (instead of one type per kind) keeps the free list
// simple; steady-state packet flow allocates no events.
//
// Events are pooled per shard. An event is acquired from the pool of the
// shard that schedules it and freed into the pool of the shard that executes
// it (home), so each free list is only ever touched by its owning shard's
// goroutine. Cross-shard traffic migrates pool entries: each traversal
// carries one to the fabric, and each delivered traversal carries one on to
// its receiver, so a data packet's exchange (the data out, its ACK back)
// returns its source shard's event. A traversal that dies in the fabric
// leaves its event there; the fabric counts it against the data packet's
// source shard (Network.evOwed) and foldDiag hands it back when Run
// returns. One long Run therefore still allocates an event per drop until
// it returns.
type coreEvent struct {
	kind    uint8
	nic     *nic // transmit/timeout: the sender; receive: the destination
	p       *netsim.Packet
	seq     uint64 // timeout: sequence the timer guards
	attempt int    // timeout: attempt the timer belongs to
	home    *coreShard
	next    *coreEvent
}

const (
	evTransmit = iota // put p on the sender's injection wire
	evTraverse        // p's head reached stage 0: resolve the optical path
	evTimeout         // RTO expired for (seq, attempt)
	evReceive         // p's last bit reached the destination NIC
)

func (ev *coreEvent) Run(e *sim.Engine) {
	kind, c, p, seq, attempt := ev.kind, ev.nic, ev.p, ev.seq, ev.attempt
	home := ev.home
	ev.nic, ev.p, ev.home = nil, nil, nil
	ev.next = home.evFree
	home.evFree = ev
	if home.aud != nil {
		home.aud.ev.Put()
	}
	switch kind {
	case evTransmit:
		c.transmit(p)
	case evTraverse:
		c.net.traverse(p, e.Now())
	case evTimeout:
		c.timeout(seq, attempt)
	case evReceive:
		c.receive(p, e.Now())
	}
}

// acquireEvent returns a pooled event from this shard's free list.
func (sh *coreShard) acquireEvent() *coreEvent {
	ev := sh.evFree
	if ev != nil {
		sh.evFree = ev.next
	} else {
		ev = &coreEvent{}
	}
	if sh.aud != nil {
		sh.aud.ev.Get()
	}
	return ev
}

// sched enqueues a pooled event on this NIC's own shard at absolute time t,
// keyed by the NIC's actor stream.
func (c *nic) sched(t sim.Time, kind uint8, p *netsim.Packet, seq uint64, attempt int) {
	ev := c.sh.acquireEvent()
	ev.kind, ev.nic, ev.p, ev.seq, ev.attempt, ev.home = kind, c, p, seq, attempt, c.sh
	c.eng.ScheduleKey(t, c.act.Next(), ev)
}

// postTraverse hands p's head to the fabric shard at time t (>= one link
// delay away, the sharded engine's lookahead).
func (c *nic) postTraverse(t sim.Time, p *netsim.Packet) {
	fab := c.net.fab
	ev := c.sh.acquireEvent()
	ev.kind, ev.nic, ev.p, ev.home = evTraverse, c, p, fab
	c.sh.Sim.Post(fab.Sim, t, c.act.Next(), ev)
}

// postReceive hands p's last-bit arrival to the destination NIC's shard.
// Runs on the fabric shard.
func (n *Network) postReceive(t sim.Time, dst *nic, p *netsim.Packet) {
	ev := n.fab.acquireEvent()
	ev.kind, ev.nic, ev.p, ev.home = evReceive, dst, p, dst.sh
	n.fab.Sim.Post(dst.sh.Sim, t, n.fabAct.Next(), ev)
}

// Run is the NIC's wire-free event: the tail of the previous packet has
// left the injection wire. The sending flag guarantees at most one pending
// instance per NIC, so the NIC itself is the event.
func (c *nic) Run(*sim.Engine) {
	c.sending = false
	c.pump()
}

// release hands back a packet this NIC created, once the NIC is done with
// it: a data packet when it is ACKed and no longer held, when the sender
// gives up on it, or at its transmission with the protocol off; an ACK at
// its transmission. Copies of it may still be in flight, read by the fabric
// or the destination shard, so it waits in the pool's quarantine for the
// fixed flight time of its kind plus one lookahead. Every copy left at or
// before now, so by then each has been received or dropped, in an earlier
// epoch of the sharded engine than the reuse: the barrier between orders
// those reads before the next writer. Counting copies instead would need
// writes from the fabric and destination shards, a data race at K >= 2.
func (c *nic) release(p *netsim.Packet) {
	wait := c.net.reuse
	if p.Ack {
		wait = c.net.ackReuse
	}
	c.sh.pkts.Put(p, c.eng.Now().Add(wait))
}
