package core

import (
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// windowMirror drives a pktTable and a Go map with the same operations and
// fails the test on the first disagreement. Puts ascend, as a NIC numbers
// its packets; gets and dels may name any sequence, below the window (a late
// ACK), inside it, or above it (never sent).
type windowMirror struct {
	tbl    pktTable
	ref    map[uint64]*netsim.Packet
	next   uint64 // the sequence the next put uses
	maxWin uint64 // widest window after any put
}

func newWindowMirror() *windowMirror {
	return &windowMirror{ref: make(map[uint64]*netsim.Packet)}
}

// put stores a fresh packet under the next sequence.
func (m *windowMirror) put() {
	p := &netsim.Packet{Seq: m.next}
	m.tbl.put(m.next, p)
	m.ref[m.next] = p
	m.next++
	m.maxWin = max(m.maxWin, m.tbl.hi-m.tbl.lo)
}

func (m *windowMirror) get(t testing.TB, seq uint64) {
	t.Helper()
	if got, want := m.tbl.get(seq), m.ref[seq]; got != want {
		t.Fatalf("get(%d) = %v, want %v (window [%d, %d))", seq, got, want, m.tbl.lo, m.tbl.hi)
	}
}

func (m *windowMirror) del(t testing.TB, seq uint64) {
	t.Helper()
	_, want := m.ref[seq]
	if got := m.tbl.del(seq); got != want {
		t.Fatalf("del(%d) = %v, want %v (window [%d, %d))", seq, got, want, m.tbl.lo, m.tbl.hi)
	}
	delete(m.ref, seq)
}

// check asserts the whole contract: the live count, a walk that visits
// every live entry once in ascending order, a window that starts at the
// oldest live sequence, and a ring at most twice the widest window.
func (m *windowMirror) check(t testing.TB) {
	t.Helper()
	if m.tbl.Len() != len(m.ref) {
		t.Fatalf("Len = %d, want %d", m.tbl.Len(), len(m.ref))
	}
	n, first, last := 0, true, uint64(0)
	m.tbl.foreach(func(seq uint64, p *netsim.Packet) {
		if !first && seq <= last {
			t.Fatalf("foreach visited seq %d after %d", seq, last)
		}
		if m.ref[seq] != p {
			t.Fatalf("foreach: seq %d holds %v, want %v", seq, p, m.ref[seq])
		}
		if first && seq != m.tbl.lo {
			t.Fatalf("oldest live seq %d but window starts at %d", seq, m.tbl.lo)
		}
		first, last = false, seq
		n++
	})
	if n != len(m.ref) {
		t.Fatalf("foreach visited %d entries, want %d", n, len(m.ref))
	}
	if n == 0 && m.tbl.lo != m.tbl.hi {
		t.Fatalf("empty table with window [%d, %d)", m.tbl.lo, m.tbl.hi)
	}
	if uint64(len(m.tbl.ring)) > 2*max(m.maxWin, 1) {
		t.Fatalf("ring of %d slots for a widest window of %d", len(m.tbl.ring), m.maxWin)
	}
}

// pick maps r to a sequence from four below the window to two above the
// last put, so gets and dels land below the window (late ACKs), inside it
// and past it (never sent).
func (m *windowMirror) pick(r int) uint64 {
	lo := m.tbl.lo - min(m.tbl.lo, 4)
	return lo + uint64(r)%(m.next+3-lo)
}

// head maps r to one of the four oldest sequences of the window: ACKs
// mostly return in order, which keeps the window narrow.
func (m *windowMirror) head(r int) uint64 { return m.tbl.lo + uint64(r)%4 }

// TestPktTableMatchesMap drives the packet window with ascending puts and
// random gets and dels mirrored against a Go map: contents must agree after
// every operation. The window stays a few dozen wide over thousands of
// puts, so the ring wraps many times; sequence 0 is a valid key because the
// first packet of every NIC carries it.
func TestPktTableMatchesMap(t *testing.T) {
	m := newWindowMirror()
	rng := sim.NewRNG(42)
	for op := 0; op < 40000; op++ {
		switch rng.Intn(5) {
		case 0:
			m.put()
		case 1:
			m.get(t, m.pick(rng.Intn(1<<20)))
		case 2:
			m.del(t, m.pick(rng.Intn(1<<20)))
		case 3, 4:
			m.del(t, m.head(rng.Intn(4)))
		}
		m.check(t)
	}
	if wraps := m.next / uint64(len(m.tbl.ring)); wraps < 100 {
		t.Fatalf("ring of %d slots wrapped only %d times", len(m.tbl.ring), wraps)
	}
}

// TestPktTableStuckHead holds the oldest sequence (a packet stuck in
// retransmission) while a thousand later ones complete: the window widens
// to span them all with one live entry, and collapses when the head goes.
func TestPktTableStuckHead(t *testing.T) {
	m := newWindowMirror()
	m.put()
	for i := 0; i < 1000; i++ {
		m.put()
		m.del(t, m.next-1)
		m.check(t)
	}
	if m.tbl.Len() != 1 || m.tbl.lo != 0 || m.tbl.hi != 1001 {
		t.Fatalf("stuck head: Len %d, window [%d, %d), want 1 in [0, 1001)", m.tbl.Len(), m.tbl.lo, m.tbl.hi)
	}
	if len(m.tbl.ring) != 1024 {
		t.Fatalf("ring of %d slots for a 1001-wide window, want 1024", len(m.tbl.ring))
	}
	m.get(t, 0)
	m.get(t, 500)
	m.del(t, 0)
	m.check(t)
	if m.tbl.lo != m.tbl.hi {
		t.Fatalf("window [%d, %d) after the head left, want empty", m.tbl.lo, m.tbl.hi)
	}
	m.put()
	m.check(t)
	if m.tbl.lo != 1001 || m.tbl.hi != 1002 {
		t.Fatalf("window [%d, %d) after the next put, want [1001, 1002)", m.tbl.lo, m.tbl.hi)
	}
}

// TestPktTablePutOutOfOrderPanics pins the in-order put contract: once
// sequences 0-5 have come and gone, a put below the window's end (a
// sequence reused) or past it (one skipped) is a protocol bug, not a store.
func TestPktTablePutOutOfOrderPanics(t *testing.T) {
	for _, seq := range []uint64{3, 5, 7} {
		m := newWindowMirror()
		for range 6 {
			m.put()
			m.del(t, m.next-1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("put(%d) after sequences 0-5 did not panic", seq)
				}
			}()
			m.tbl.put(seq, &netsim.Packet{Seq: seq})
		}()
		m.put()
		m.check(t)
	}
}

// FuzzOutstandingWindow runs the map mirror over an arbitrary operation
// stream: each byte's low two bits pick put, get, del anywhere or del near
// the head, and the rest pick the sequence.
func FuzzOutstandingWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 7, 1, 0, 2, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 10, 14, 18, 0, 3, 252, 0, 253})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newWindowMirror()
		for _, b := range ops {
			switch b & 3 {
			case 0:
				m.put()
			case 1:
				m.get(t, m.pick(int(b>>2)))
			case 2:
				m.del(t, m.pick(int(b>>2)))
			case 3:
				m.del(t, m.head(int(b>>2)))
			}
			m.check(t)
		}
	})
}

// TestSrcTableMatchesMap mirrors the append-only source table against a map,
// including growth across the initial capacity and src 0 (a valid node id).
func TestSrcTableMatchesMap(t *testing.T) {
	var tbl srcTable
	ref := make(map[int]uint64) // src -> next
	rng := sim.NewRNG(7)
	for op := 0; op < 5000; op++ {
		src := rng.Intn(300)
		tr := tbl.insert(src)
		if _, ok := ref[src]; !ok {
			ref[src] = 0
		}
		if tr.next != ref[src] {
			t.Fatalf("op %d: src %d next = %d, want %d", op, src, tr.next, ref[src])
		}
		if tr.record(tr.next) {
			ref[src]++
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
	}
	for src, next := range ref {
		tr := tbl.lookup(src)
		if tr == nil || tr.next != next {
			t.Fatalf("lookup(%d) = %+v, want next %d", src, tr, next)
		}
	}
	if tbl.lookup(9999) != nil {
		t.Fatal("lookup of unseen src returned a tracker")
	}
	var count int
	tbl.foreach(func(src int, tr *seqTracker) {
		if tr.next != ref[src] {
			t.Fatalf("foreach: src %d next = %d, want %d", src, tr.next, ref[src])
		}
		count++
	})
	if count != len(ref) {
		t.Fatalf("foreach visited %d sources, want %d", count, len(ref))
	}
}
