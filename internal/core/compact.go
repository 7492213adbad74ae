package core

import (
	"fmt"

	"baldur/internal/netsim"
)

// Compact tables for the per-NIC hot-path state. At datacenter scale (128K
// nodes) the per-flow maps dominated the heap: a Go map costs ~48 B of
// header plus ~10 B/slot of bucket overhead, and the NIC working sets are
// tiny (a handful of unACKed packets, one dedup tracker per active source).
// Both tables keep their entries inline in power-of-two slices, so an idle
// NIC costs nil slices and an active one a single small allocation that
// grows geometrically.
//
// The unACKed set is a ring over a sequence window rather than a hash: a
// NIC numbers its data packets consecutively, so the live sequences sit in
// [oldest unACKed, nextSeq) and the window is nearly dense. The dedup table
// is keyed by arbitrary source ids and stays an open-addressed hash.

// hashKey mixes a key with the 64-bit golden-ratio multiplier so that
// sequential keys (node ids) scatter across the table.
func hashKey(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}

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

// srcTable maps source node ids to receive-side dedup trackers. It is
// append-only (a source once seen is tracked for the rest of the run), so
// there is no deletion path; keys store src+1 with 0 marking an empty slot
// and trackers live inline in the value slice. Pointers returned by lookup
// are valid until the next insert (which may grow the table) — callers use
// them immediately and never retain them.
type srcTable struct {
	keys []int32
	vals []seqTracker
	used int
}

// Len returns the number of tracked sources.
func (t *srcTable) Len() int { return t.used }

func (t *srcTable) slot(src int) int {
	mask := uint64(len(t.keys) - 1)
	i := hashKey(uint64(src)+1) & mask
	for t.keys[i] != 0 {
		if t.keys[i] == int32(src)+1 {
			return int(i)
		}
		i = (i + 1) & mask
	}
	return int(i)
}

// lookup returns the tracker for src, or nil if the source is new.
func (t *srcTable) lookup(src int) *seqTracker {
	if t.used == 0 {
		return nil
	}
	i := t.slot(src)
	if t.keys[i] == 0 {
		return nil
	}
	return &t.vals[i]
}

// insert returns the tracker for src, creating it if absent.
func (t *srcTable) insert(src int) *seqTracker {
	if len(t.keys) == 0 {
		t.keys = make([]int32, 8)
		t.vals = make([]seqTracker, 8)
	} else if t.used >= len(t.keys)*3/4 {
		ok, ov := t.keys, t.vals
		t.keys = make([]int32, 2*len(ok))
		t.vals = make([]seqTracker, 2*len(ov))
		t.used = 0
		for i, k := range ok {
			if k != 0 {
				j := t.slot(int(k) - 1)
				t.keys[j], t.vals[j] = k, ov[i]
				t.used++
			}
		}
	}
	i := t.slot(src)
	if t.keys[i] == 0 {
		t.keys[i] = int32(src) + 1
		t.used++
	}
	return &t.vals[i]
}

// foreach visits every tracker in arbitrary order.
func (t *srcTable) foreach(fn func(src int, tr *seqTracker)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(int(k)-1, &t.vals[i])
		}
	}
}
