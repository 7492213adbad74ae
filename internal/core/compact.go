package core

import (
	"fmt"

	"baldur/internal/netsim"
)

// The NIC's unACKed set. At datacenter scale (128K nodes) per-flow Go maps
// dominated the heap: a map costs ~48 B of header plus ~10 B/slot of bucket
// overhead, and a NIC's working set is tiny (a handful of unACKed packets).
// The table keeps its entries inline in a power-of-two slice, so an idle NIC
// costs a nil slice and an active one a single small allocation that grows
// geometrically. It is a ring over a sequence window rather than a hash: a
// NIC numbers its data packets consecutively, so the live sequences sit in
// [oldest unACKed, nextSeq) and the window is nearly dense.

// pktTable maps sequence numbers to in-flight packets (the NIC's unACKed
// window). Live sequences lie in the window [lo, hi), and sequence s sits
// at ring[s & (len(ring)-1)]; a nil slot is an ACKed sequence, so sequence
// 0 is a valid key. Sequences are put in order — put writes at hi and
// panics anywhere else — and del advances lo past cleared slots, so every
// slot outside the window is nil.
//
// Memory bound: the ring doubles only when the window outgrows it, so it
// holds at most twice the widest window the NIC ever had. The window is the
// live count plus the ACKed sequences above the oldest unACKed one: a packet
// stuck in retransmission keeps lo pinned while later sequences complete
// (in the fault campaign the widest window was 989 sequences), and the ring
// never shrinks.
type pktTable struct {
	ring   []*netsim.Packet
	lo, hi uint64
	used   int
}

// Len returns the number of live entries.
func (t *pktTable) Len() int { return t.used }

// get returns the packet stored under seq, or nil.
func (t *pktTable) get(seq uint64) *netsim.Packet {
	if seq < t.lo || seq >= t.hi {
		return nil
	}
	return t.ring[seq&uint64(len(t.ring)-1)]
}

// put stores p under seq, which must be hi: a NIC numbers its packets
// consecutively, so each put extends the window by one.
func (t *pktTable) put(seq uint64, p *netsim.Packet) {
	if seq != t.hi {
		panic(fmt.Sprintf("core: pktTable.put(%d) out of order: the window ends at %d", seq, t.hi))
	}
	if seq-t.lo == uint64(len(t.ring)) {
		t.grow()
	}
	t.ring[seq&uint64(len(t.ring)-1)] = p
	t.hi++
	t.used++
}

// grow doubles the ring (to two slots at first) and re-homes the window.
func (t *pktTable) grow() {
	old := t.ring
	t.ring = make([]*netsim.Packet, max(2*len(old), 2))
	om, nm := uint64(len(old)-1), uint64(len(t.ring)-1)
	for s := t.lo; s < t.hi; s++ {
		t.ring[s&nm] = old[s&om]
	}
}

// del removes seq and returns whether it was present.
func (t *pktTable) del(seq uint64) bool {
	if seq < t.lo || seq >= t.hi {
		return false
	}
	mask := uint64(len(t.ring) - 1)
	i := seq & mask
	if t.ring[i] == nil {
		return false
	}
	t.ring[i] = nil
	t.used--
	if seq == t.lo {
		for t.lo++; t.lo < t.hi && t.ring[t.lo&mask] == nil; t.lo++ {
		}
	}
	return true
}

// foreach visits every live entry in ascending sequence order.
func (t *pktTable) foreach(fn func(seq uint64, p *netsim.Packet)) {
	mask := uint64(len(t.ring) - 1)
	for s := t.lo; s < t.hi; s++ {
		if p := t.ring[s&mask]; p != nil {
			fn(s, p)
		}
	}
}
