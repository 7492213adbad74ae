package core

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/stats"
	"baldur/internal/telemetry"
)

// nic models a server node's network interface: a transmit queue feeding
// the single 25 Gbps injection wire, the retransmission buffer holding
// unACKed packets, the local retransmission timer, binary exponential
// backoff, and receive-side deduplication plus ACK generation (Sec IV-E).
//
// NICs live in one contiguous slab (Network.nics []nic) indexed by node id:
// at datacenter scale the per-node header cost is what bounds the resident
// set, so the struct embeds its RNG by value and keeps the reliability and
// dedup state in compact inline tables instead of Go maps. An idle
// NIC allocates nothing beyond its slab slot.
type nic struct {
	net *Network
	id  int

	// Shard residency: sh owns this NIC's events, eng is sh's queue, act
	// is the NIC's deterministic tie-break key stream and rng its private
	// randomness (backoff draws) — all independent of how NICs are packed
	// onto shards.
	sh  *coreShard
	eng *sim.Engine
	act sim.Actor
	rng sim.RNG

	// ackLat accumulates this NIC's ACK round-trip observations; merged in
	// node order by Run's fold.
	ackLat stats.Running

	// Transmit side. ACKs are prepended (control priority); data appends.
	// The queue is a two-ended structure so neither end allocates in
	// steady state: qfront is a LIFO stack of prepended packets (its last
	// element is the head of the queue) and qback a FIFO slice consumed
	// via qhead, whose consumed prefix pushBack reclaims.
	qfront     []*netsim.Packet
	qback      []*netsim.Packet
	qhead      int
	sending    bool
	wireFreeAt sim.Time
	nextSeq    uint64

	// Reliability state: unACKed data packets by sequence, in a ring over
	// the window from the oldest unACKed sequence to nextSeq.
	outstanding pktTable
	retxBytes   int

	// Receive side dedup, per source.
	seen srcTable
}

// init wires a slab slot up as node id's NIC.
func (c *nic) init(n *Network, id int, sh *coreShard, rng *sim.RNG) {
	c.net = n
	c.id = id
	c.sh = sh
	c.eng = sh.Sim.Eng
	c.act = sim.MakeActor(uint32(id) + 2) // 1 is the fabric
	c.rng = *rng
}

func (c *nic) queueLen() int { return len(c.qfront) + len(c.qback) - c.qhead }

func (c *nic) peekFront() *netsim.Packet {
	if n := len(c.qfront); n > 0 {
		return c.qfront[n-1]
	}
	return c.qback[c.qhead]
}

func (c *nic) popFront() {
	if n := len(c.qfront); n > 0 {
		c.qfront[n-1] = nil
		c.qfront = c.qfront[:n-1]
		return
	}
	c.qback[c.qhead] = nil
	c.qhead++
	if c.qhead == len(c.qback) {
		c.qback = c.qback[:0]
		c.qhead = 0
	}
}

// pushBack appends p at the tail of the queue. A backlog that never drains
// would otherwise keep a slot for every packet it ever held, so when the
// consumed prefix is at least half of qback it is compacted in place first.
func (c *nic) pushBack(p *netsim.Packet) {
	if c.qhead > 16 && c.qhead*2 >= len(c.qback) {
		n := copy(c.qback, c.qback[c.qhead:])
		clear(c.qback[n:])
		c.qback, c.qhead = c.qback[:n], 0
	}
	p.Held = true
	c.qback = append(c.qback, p)
}

func (c *nic) enqueueData(p *netsim.Packet) {
	c.pushBack(p)
	if !c.net.cfg.DisableRetransmit {
		c.outstanding.put(p.Seq, p)
		c.retxBytes += p.Size
		c.sh.maxRetx = max(c.sh.maxRetx, c.retxBytes)
	} else if aud := c.sh.aud; aud != nil {
		aud.held++
	}
	c.pump()
}

// pushFront puts p at the head of the queue: an ACK (control priority) or
// a retransmission.
func (c *nic) pushFront(p *netsim.Packet) {
	p.Held = true
	c.qfront = append(c.qfront, p)
	c.pump()
}

// discard drops a held data packet whose ACK overtook it: it consumes its
// queue entry without a wire attempt, and the NIC is done with it.
func (c *nic) discard(p *netsim.Packet) {
	if aud := c.sh.aud; aud != nil {
		aud.overtaken++
		aud.held--
	}
	c.release(p)
}

// forget removes a packet from the reliability state (ACK received, or the
// protocol is disabled and the packet was dropped).
func (c *nic) forget(p *netsim.Packet) {
	if c.outstanding.del(p.Seq) {
		c.retxBytes -= p.Size
	}
}

// pump starts transmitting the head-of-queue packet if the wire is free.
func (c *nic) pump() {
	if c.sending || c.queueLen() == 0 {
		return
	}
	p := c.peekFront()
	if p.Acked {
		// The ACK overtook the retransmission: discard silently.
		c.popFront()
		c.discard(p)
		c.pump()
		return
	}
	now := c.eng.Now()
	start := now
	if c.wireFreeAt > start {
		start = c.wireFreeAt
	}
	wireWait := start
	if p.NotBefore > start {
		start = p.NotBefore // backoff window (head-of-line by design:
		// BEB throttles the whole transmitter, Sec IV-E)
		if tp := c.sh.Probe; tp != nil {
			tp.Blocks.Inc()
			c.sh.Record(telemetry.KindBlock, p, now, start.Sub(now), -1, 0)
		}
	}
	if p.Traced {
		// Attribute the wait since the last cursor advance: time behind
		// earlier queued packets (queue), residual occupancy of the
		// injection wire at pop time (wire_busy), then the BEB window
		// (backoff). The spans tile [TraceCursor, start) exactly, and the
		// attempt's transmission starts at start.
		att := int32(p.Retries)
		c.sh.Span(telemetry.PhaseQueue, p.TraceCursor, now, p, -1, att)
		c.sh.Span(telemetry.PhaseWireBusy, now, wireWait, p, -1, att)
		c.sh.Span(telemetry.PhaseBackoff, wireWait, start, p, -1, att)
		p.TraceCursor = start
	}
	c.popFront()
	c.sending = true
	if start == now {
		c.transmit(p)
		return
	}
	c.sched(start, evTransmit, p, 0, 0)
}

// transmit puts p on the injection wire at the current time.
func (c *nic) transmit(p *netsim.Packet) {
	n := c.net
	now := c.eng.Now()
	if p.Acked {
		c.discard(p)
		c.sending = false
		c.pump()
		return
	}
	aud := c.sh.aud
	if aud != nil {
		aud.checkLive(p)
	}
	p.Held = false
	dur := n.duration
	if p.Ack {
		dur = n.ackDur
	}
	c.wireFreeAt = now.Add(dur + n.gap)
	// The head reaches the first-stage switch after the host fiber (one
	// lookahead away: this is the cross-shard handoff).
	c.postTraverse(now.Add(netsim.HostLinkDelay), p)
	// Local retransmission timer for data packets. An ACK, or a data
	// packet with the protocol off, is never sent again.
	if !p.Ack && !n.cfg.DisableRetransmit {
		c.sched(now.Add(n.rto), evTimeout, nil, p.Seq, p.Retries)
	} else {
		if aud != nil {
			aud.held--
		}
		c.release(p)
	}
	// Wire becomes free: send the next queued packet.
	c.eng.ScheduleKey(c.wireFreeAt, c.act.Next(), c)
}

// timeout fires RTO after a transmission attempt; if the packet is still
// unACKed and no newer attempt superseded this timer, retransmit with
// binary exponential backoff.
func (c *nic) timeout(seq uint64, attempt int) {
	p := c.outstanding.get(seq)
	if p == nil || p.Retries != attempt {
		return // ACKed, or a newer attempt owns the timer
	}
	n := c.net
	if limit := n.cfg.MaxAttempts; limit > 0 && p.Retries+1 >= limit {
		// Attempt cap: p.Retries+1 attempts are already on the wire or
		// lost. Abandon the packet so a run facing a dead switch or a
		// severed link drains instead of retransmitting forever. A late
		// ACK for it lands in the auditor's unmatched tally. The packet
		// is not held: this timer belongs to its latest attempt.
		c.forget(p)
		c.release(p)
		c.sh.Ledger.GaveUp++
		return
	}
	p.Retries++
	c.sh.Ledger.Retransmissions++
	c.sh.Record(telemetry.KindRetransmit, p, c.eng.Now(), 0, -1, int32(p.Retries))
	if p.Traced {
		// The attempt was lost: everything since its transmit start was
		// spent waiting for this timer.
		c.sh.Span(telemetry.PhaseRetxWait, p.TraceCursor, c.eng.Now(), p, -1, int32(p.Retries))
		p.TraceCursor = c.eng.Now()
	}
	if !n.cfg.DisableBEB {
		exp := p.Retries
		if exp > n.cfg.MaxBackoffExp {
			exp = n.cfg.MaxBackoffExp
		}
		window := 1 << exp
		slots := c.rng.Intn(window)
		p.NotBefore = c.eng.Now().Add(sim.Duration(slots) * n.cfg.BEBSlot)
	}
	c.pushFront(p)
}

// receive handles a packet arriving at this node.
func (c *nic) receive(p *netsim.Packet, at sim.Time) {
	n := c.net
	aud := c.sh.aud
	if aud != nil {
		// A copy still in flight when its packet was reused arrives
		// addressed elsewhere.
		aud.checkLive(p)
		if p.Dst != c.id {
			aud.poisoned++
		}
	}
	if p.Ack {
		// We are the original sender: the ACK closes the loop (the ACK's
		// Dst is the data packet's source, i.e. this NIC).
		if data := c.outstanding.get(p.AckFor); data != nil {
			data.Acked = true
			c.forget(data)
			c.sh.Record(telemetry.KindAck, data, at, 0, -1, 0)
			if data.Traced {
				// Post-delivery phase: the receiver stamped the ACK's
				// Created with the data arrival time, so [Created, at)
				// is the ACK's return trip. Excluded from the
				// latency-sum invariant by construction.
				c.sh.Span(telemetry.PhaseAck, p.Created, at, data, -1, 0)
			}
			c.ackLat.Add(float64(at.Sub(data.Created).Nanoseconds()))
			if !data.Held {
				c.release(data)
			} else if aud != nil {
				aud.held++ // pump or transmit discards and releases it
			}
		} else if aud != nil {
			// Late ACK for a sequence already cleared: the duplicate
			// delivery's redundant ACK.
			aud.unmatchedAcks++
		}
		return
	}
	if n.cfg.DisableRetransmit {
		c.deliverUnique(p, at)
		return
	}
	// Dedup, then always ACK (the original ACK may have been lost).
	fresh := c.seen.insert(p.Src).record(p.Seq)
	if fresh {
		c.deliverUnique(p, at)
	} else {
		c.sh.Ledger.Duplicates++
	}
	// ACKs are anonymous (ID 0), and come from this NIC's own pool.
	ack := c.sh.pkts.Get(at)
	*ack = netsim.Packet{Src: c.id, Dst: p.Src, Size: ackSize, Created: at, Ack: true, AckFor: p.Seq}
	if aud != nil {
		aud.held++
	}
	c.pushFront(ack)
}

// deliverUnique records the deliver event, then the delivered attempt's
// flight spans, then calls the delivery callbacks.
func (c *nic) deliverUnique(p *netsim.Packet, at sim.Time) {
	c.sh.Delivered(p, at)
	if p.Traced {
		c.traceFlight(p, at)
	}
	c.net.Notify(&c.sh.Shard, p, at)
}

// traceFlight reconstructs the delivered attempt's flight spans at the
// destination. The fabric is bufferless, so a successful attempt's timing is
// fully determined by constants: it started serializing exactly net.flight
// before delivery, and the head then moved one fiber/stage at a time. This
// runs on the destination shard but reads only immutable packet fields and
// network constants — the source shard still owns the mutable packet state
// (cursor, retry bookkeeping), which is why the attempt is reconstructed
// rather than carried on the packet.
func (c *nic) traceFlight(p *netsim.Packet, at sim.Time) {
	n := c.net
	t := at.Add(-n.flight)
	c.sh.Span(telemetry.PhaseLink, t, t.Add(netsim.HostLinkDelay), p, -1, 0)
	t = t.Add(netsim.HostLinkDelay)
	for s := 0; s < n.mb.Stages; s++ {
		c.sh.Span(telemetry.PhaseHop, t, t.Add(n.perStage), p, int32(s), 0)
		t = t.Add(n.perStage)
	}
	c.sh.Span(telemetry.PhaseLink, t, t.Add(netsim.HostLinkDelay), p, -1, 1)
	c.sh.Span(telemetry.PhaseWire, at.Add(-n.duration), at, p, -1, 0)
}

// seqTracker deduplicates per-source sequence numbers with O(1) memory for
// in-order delivery and a small spill set for reordering caused by
// retransmissions.
type seqTracker struct {
	next   uint64 // all seq < next have been seen
	extras map[uint64]struct{}
}

// record returns true if seq is new.
func (t *seqTracker) record(seq uint64) bool {
	if seq < t.next {
		return false
	}
	if seq == t.next {
		t.next++
		// Compact any contiguous extras.
		for {
			if _, ok := t.extras[t.next]; !ok {
				break
			}
			delete(t.extras, t.next)
			t.next++
		}
		return true
	}
	if t.extras == nil {
		t.extras = make(map[uint64]struct{})
	}
	if _, dup := t.extras[seq]; dup {
		return false
	}
	t.extras[seq] = struct{}{}
	return true
}
