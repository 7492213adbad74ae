package elecnet

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"baldur/internal/check"
	"baldur/internal/sim"
)

// TestVCQueuesAreIntrusiveFIFOs pushes and pops pooled states on three VC
// queues in a random interleaving, against a slice per queue. Every queue
// must pop in push order, its count must equal a walk of its list, and a
// state must leave a queue, and come back from the pool, with no qnext link.
func TestVCQueuesAreIntrusiveFIFOs(t *testing.T) {
	if sz := unsafe.Sizeof(pktState{}); sz > 64 {
		t.Errorf("pktState is %d B, above the 64 B size class", sz)
	}
	n := &engine{vcs: 3}
	sh := &eshard{}
	rng := sim.NewRNG(7)
	qs := make([]fifo, n.vcs)
	ref := make([][]*pktState, n.vcs)
	for op := 0; op < 4000; op++ {
		vc := rng.Intn(n.vcs)
		if rng.Intn(5) < 3 {
			st := n.acquireState(sh, nil)
			if st.qnext != nil {
				t.Fatalf("op %d: acquired state carries qnext", op)
			}
			qs[vc].push(st)
			ref[vc] = append(ref[vc], st)
		} else if len(ref[vc]) > 0 {
			if qs[vc].peek() != ref[vc][0] {
				t.Fatalf("op %d: vc %d head is not the oldest state", op, vc)
			}
			st := qs[vc].pop()
			if st != ref[vc][0] {
				t.Fatalf("op %d: vc %d popped out of order", op, vc)
			}
			if st.qnext != nil {
				t.Fatalf("op %d: popped state still links into vc %d", op, vc)
			}
			ref[vc] = ref[vc][1:]
			n.releaseState(st)
		}
		for v := range qs {
			walked, last := 0, (*pktState)(nil)
			for st := qs[v].head; st != nil; st = st.qnext {
				if walked >= len(ref[v]) || st != ref[v][walked] {
					t.Fatalf("op %d: vc %d list diverges from push order at %d", op, v, walked)
				}
				walked, last = walked+1, st
			}
			if qs[v].len() != walked || walked != len(ref[v]) || qs[v].tail != last {
				t.Fatalf("op %d: vc %d counts %d, walk finds %d (want %d), tail at the end: %v",
					op, v, qs[v].len(), walked, len(ref[v]), qs[v].tail == last)
			}
		}
	}
	// A state released with a link set (never done by a queue) must still
	// come back from the pool unlinked.
	a, b := n.acquireState(sh, nil), n.acquireState(sh, nil)
	a.qnext = b
	n.releaseState(a)
	if got := n.acquireState(sh, nil); got != a || got.qnext != nil {
		t.Errorf("reacquired state %p (released %p) carries qnext %p", got, a, got.qnext)
	}
}

// TestAuditCatchesCorruptQueueCount loads a fat-tree with a hotspot, bumps
// one non-empty VC queue's count at a barrier and requires the next
// checkpoint's elec/queues rule to flag that port.
func TestAuditCatchesCorruptQueueCount(t *testing.T) {
	n, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	aud := check.New(check.Options{})
	n.AttachAudit(aud)
	for src := 1; src < n.NumNodes(); src++ {
		for k := 0; k < 8; k++ {
			n.Send(src, 0, 0)
		}
	}
	at := sim.Time(2 * sim.Microsecond)
	n.Run(at)
	aud.Checkpoint(at, false)
	if vs := aud.Violations(); len(vs) != 0 {
		t.Fatalf("audit fails before the corruption: %v", vs)
	}
	corrupted := ""
	for ri := range n.routers {
		r := &n.routers[ri]
		for pi := range r.out {
			for vi := range r.out[pi].queues {
				if q := &r.out[pi].queues[vi]; q.len() > 0 && corrupted == "" {
					q.n++
					corrupted = fmt.Sprintf("router %d port %d ", r.id, pi)
				}
			}
		}
	}
	if corrupted == "" {
		t.Fatalf("no port held a queued packet at %v; the hotspot does not load the fabric", at)
	}
	aud.Checkpoint(at, false)
	for _, v := range aud.Violations() {
		if v.Rule == "elec/queues" && strings.Contains(v.Detail, corrupted) {
			return
		}
	}
	t.Errorf("no elec/queues violation naming %q among %v", corrupted, aud.Violations())
}
