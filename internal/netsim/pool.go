package netsim

import "baldur/internal/sim"

// ReleasedID is the ID a poisoning PacketPool stamps on every packet that
// leaves its quarantine. No packet in use carries it, so an audit that
// meets it has found a stale pointer to a recycled packet.
const ReleasedID = ^uint64(0)

// PacketPool recycles one shard's packets. A dead packet goes back with Put
// and the time from which it may be reused, and waits in a FIFO quarantine
// until a Get at or after that time moves it to the free stack Get takes
// packets from. Both hold packet pointers in fixed-size blocks, full but
// for the newest, and emptied blocks are kept for reuse, so a pool that
// grows to a run's peak leaves no outgrown arrays behind as garbage. A pool
// is touched only by its shard's goroutine.
type PacketPool struct {
	quar, quarTail *packetBlock // quarantine FIFO, oldest block first
	free           *packetBlock // free stack, top block first; never empty
	spare          *packetBlock // emptied blocks
	made           int
	// Poison makes Get stamp ReleasedID on every packet it moves out of the
	// quarantine. Audits set it.
	Poison bool
}

// packetBlock is 2 KiB of pooled packets. In the quarantine, at is the
// latest reuse time of any packet in it.
type packetBlock struct {
	p    [252]*Packet
	n    int
	at   sim.Time
	next *packetBlock
}

// block returns an empty block, a kept one if there is one.
func (pp *PacketPool) block() *packetBlock {
	b := pp.spare
	if b == nil {
		return new(packetBlock)
	}
	pp.spare, b.next = b.next, nil
	return b
}

// Get returns a packet for reuse at now, or a new one when none is free.
// The caller overwrites every field.
func (pp *PacketPool) Get(now sim.Time) *Packet {
	for q := pp.quar; q != nil && q.at <= now; q = pp.quar {
		pp.quar = q.next
		if pp.quar == nil {
			pp.quarTail = nil
		}
		for _, p := range q.p[:q.n] {
			if pp.Poison {
				p.ID = ReleasedID
			}
			if pp.free == nil || pp.free.n == len(pp.free.p) {
				b := pp.block()
				b.next, pp.free = pp.free, b
			}
			pp.free.p[pp.free.n] = p
			pp.free.n++
		}
		q.n, q.next, pp.spare = 0, pp.spare, q
	}
	b := pp.free
	if b == nil {
		pp.made++
		return new(Packet)
	}
	b.n--
	p := b.p[b.n]
	if b.n == 0 {
		pp.free = b.next
		b.next, pp.spare = pp.spare, b
	}
	return p
}

// Put hands back p, which nothing may touch from at on; Get reuses it no
// earlier.
func (pp *PacketPool) Put(p *Packet, at sim.Time) {
	b := pp.quarTail
	if b == nil || b.n == len(b.p) {
		nb := pp.block()
		nb.at = at
		if b == nil {
			pp.quar = nb
		} else {
			b.next = nb
		}
		pp.quarTail, b = nb, nb
	}
	b.p[b.n] = p
	b.n++
	b.at = max(b.at, at)
}

// Census returns how many packets the pool has made, and how many of them
// it holds in quarantine and on the free stack; the rest are in use.
func (pp *PacketPool) Census() (made, quarantined, free int) {
	for b := pp.quar; b != nil; b = b.next {
		quarantined += b.n
	}
	for b := pp.free; b != nil; b = b.next {
		free += b.n
	}
	return pp.made, quarantined, free
}
