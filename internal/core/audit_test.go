package core

import (
	"strings"
	"testing"

	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// TestRetxBytesZeroAfterLateAck drives the timeout -> retransmit -> late-ACK
// path and asserts the retransmission-buffer byte accounting returns exactly
// to zero: the requeue path must not double-count (enqueueData is the only
// increment site and a requeue must not pass through it), and the late ACK's
// forget must remove the packet exactly once.
func TestRetxBytesZeroAfterLateAck(t *testing.T) {
	// RTO 300 ns is far below the ~700 ns zero-load ACK round trip, so the
	// first attempt always times out and retransmits before its ACK lands;
	// the ACK then arrives "late" against the requeued copy.
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1, RTO: 300 * sim.Nanosecond})
	n.Send(0, 9, 0)
	drain(t, n)

	if n.Stats.Retransmissions == 0 {
		t.Fatal("construction broke: RTO below the round trip caused no retransmission")
	}
	if n.Stats.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1 unique delivery", n.Stats.Delivered)
	}
	for i := range n.nics {
		c := &n.nics[i]
		if c.retxBytes != 0 {
			t.Errorf("nic %d: retxBytes = %d after drain, want 0", c.id, c.retxBytes)
		}
		if c.outstanding.Len() != 0 {
			t.Errorf("nic %d: %d packets still outstanding after drain", c.id, c.outstanding.Len())
		}
	}
}

// TestAuditCleanOnRetxPath runs the same late-ACK stress through the full
// audit layer under open-loop load: every conservation ledger must hold at
// every checkpoint, serial and sharded.
func TestAuditCleanOnRetxPath(t *testing.T) {
	for _, k := range []int{1, 4} {
		n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1, RTO: 300 * sim.Nanosecond, Shards: k})
		aud := check.New(check.Options{})
		n.AttachAudit(aud)
		for src := 0; src < 16; src++ {
			src := src
			n.ScheduleNode(src, 0, sim.EventFunc(func() { n.Send(src, 15-src, 0) }))
		}
		netsim.Drive(n, nil, netsim.DriveOptions{Deadline: sim.Time(100 * sim.Microsecond), Aud: aud})
		if err := aud.Err(); err != nil {
			t.Errorf("K=%d: %v", k, err)
		}
		if aud.Checkpoints() == 0 {
			t.Errorf("K=%d: no checkpoints ran", k)
		}
		if n.Stats.Retransmissions == 0 {
			t.Errorf("K=%d: construction broke: no retransmissions exercised", k)
		}
	}
}

// TestAuditCatchesRetxLeak corrupts a NIC's retx-byte counter mid-run and
// requires the core/retx-bytes rule to flag it with the offending NIC in the
// detail.
func TestAuditCatchesRetxLeak(t *testing.T) {
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 2, Seed: 1})
	aud := check.New(check.Options{})
	n.AttachAudit(aud)
	n.Send(0, 9, 0)
	n.ScheduleNode(3, sim.Time(50*sim.Nanosecond), sim.EventFunc(func() { n.nics[3].retxBytes += 7 }))
	netsim.Drive(n, nil, netsim.DriveOptions{Deadline: sim.Time(100 * sim.Microsecond), Aud: aud})
	vs := aud.Violations()
	if len(vs) == 0 {
		t.Fatal("corrupted retxBytes went undetected")
	}
	found := false
	for _, v := range vs {
		if v.Rule == "core/retx-bytes" && strings.Contains(v.Detail, "nic 3") {
			found = true
		}
	}
	if !found {
		t.Errorf("no core/retx-bytes violation naming nic 3; first: %s", vs[0])
	}
}
