package core

import (
	"reflect"
	"testing"

	"baldur/internal/check"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/reliability"
	"baldur/internal/sim"
)

func TestInjectFaultValidation(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1})
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 99, B: 0}); err == nil {
		t.Error("out-of-range fault accepted")
	}
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 0, B: 5}); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: -1}); err == nil {
		t.Error("negative-stage fault accepted")
	}
	// A fault script reaches the same switch targets through ApplyFault: a
	// negative stage must be refused and leave the armed fault in place (a
	// kill used to clear every switch fault, a restore to index out of
	// range).
	for _, action := range []faults.Action{faults.KillSwitch, faults.RestoreSwitch} {
		if err := n.ApplyFault(faults.Event{Action: action, A: -1}); err == nil {
			t.Errorf("%v at stage -1 accepted", action)
		}
		if n.deadSwitch.Count() != 1 || !n.deadSwitch.Get(5) || !n.faulty {
			t.Errorf("%v at stage -1 changed the fault set: %d dead switches", action, n.deadSwitch.Count())
		}
	}
}

func TestFaultSetAccumulatesAndClears(t *testing.T) {
	// Faults form a set: killing a second switch must not forget the
	// first, and a restore removes exactly one.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1, DisableRetransmit: true})
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 0, B: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 0, B: 1}); err != nil {
		t.Fatal(err)
	}
	// Nodes 0/1 feed stage-0 switch 0; nodes 2/3 feed switch 1.
	if n.ProbePath(0, 33) {
		t.Error("probe through first dead switch delivered")
	}
	if n.ProbePath(2, 33) {
		t.Error("probe through second dead switch delivered")
	}
	if err := n.ApplyFault(faults.Event{Action: faults.RestoreSwitch, A: 0, B: 0}); err != nil {
		t.Fatal(err)
	}
	if !n.ProbePath(0, 33) {
		t.Error("probe lost after its switch was restored")
	}
	if n.ProbePath(2, 33) {
		t.Error("clearing one fault also cleared the other")
	}
	if err := n.ApplyFault(faults.Event{Action: faults.RestoreSwitch, A: 0, B: 1}); err != nil {
		t.Fatal(err)
	}
	if !n.ProbePath(2, 33) {
		t.Error("clearing the second fault left it armed")
	}
	if err := n.ApplyFault(faults.Event{Action: faults.RestoreSwitch, A: 99, B: 0}); err == nil {
		t.Error("out-of-range switch restore accepted")
	}
}

func TestHostLinkKillAndRestore(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1, DisableRetransmit: true})
	if err := n.ApplyFault(faults.Event{Action: faults.KillLink, A: 0}); err != nil {
		t.Fatal(err)
	}
	if n.ProbePath(0, 33) {
		t.Error("probe from a severed node delivered")
	}
	if !n.ProbePath(5, 33) {
		t.Error("unrelated probe lost while node 0's link is dead")
	}
	if n.ProbePath(5, 0) {
		t.Error("probe into a severed node delivered")
	}
	if err := n.ApplyFault(faults.Event{Action: faults.RestoreLink, A: 0}); err != nil {
		t.Fatal(err)
	}
	if !n.ProbePath(0, 33) || !n.ProbePath(5, 0) {
		t.Error("probes still lost after the host link was restored")
	}
	if err := n.ApplyFault(faults.Event{Action: faults.KillLink, A: -1}); err == nil {
		t.Error("out-of-range host-link kill accepted")
	}
}

func TestAttemptCapDrainsFaultedRun(t *testing.T) {
	// With the reliability protocol on and a dead switch in every path of
	// nodes 0/1, an uncapped run would retransmit past any horizon. The
	// attempt cap must make it drain, count the abandoned packets in GaveUp,
	// and keep every conservation ledger clean (the audit's faulted form:
	// injected == completed + outstanding + gaveUp).
	for _, k := range []int{1, 4} {
		n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1, MaxAttempts: 4, Shards: k})
		if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 0, B: 0}); err != nil {
			t.Fatal(err)
		}
		aud := check.New(check.Options{})
		n.AttachAudit(aud)
		for src := 0; src < 4; src++ {
			src := src
			n.ScheduleNode(src, 0, sim.EventFunc(func() { n.Send(src, 15-src, 0) }))
		}
		more, _ := netsim.Drive(n, nil, netsim.DriveOptions{Deadline: sim.Time(2 * sim.Millisecond), Aud: aud})
		if more {
			t.Errorf("K=%d: capped faulted run did not drain", k)
		}
		if err := aud.Err(); err != nil {
			t.Errorf("K=%d: %v", k, err)
		}
		if n.Stats.GaveUp != 2 {
			// Nodes 0 and 1 feed the dead stage-0 switch; 2 and 3 do not.
			t.Errorf("K=%d: GaveUp = %d, want 2", k, n.Stats.GaveUp)
		}
		if n.Stats.Delivered != 2 {
			t.Errorf("K=%d: Delivered = %d, want the 2 unaffected sources", k, n.Stats.Delivered)
		}
		if n.Stats.FaultDrops == 0 {
			t.Errorf("K=%d: no FaultDrops counted through a dead switch", k)
		}
		if n.Stats.Retransmissions < 2*3 {
			// At least 3 retries per abandoned packet (unaffected sources
			// may add spurious timeout retransmissions on top).
			t.Errorf("K=%d: Retransmissions = %d, want >= 6", k, n.Stats.Retransmissions)
		}
	}
}

func TestRestorationRestoresDelivery(t *testing.T) {
	// Kill the switch under node 0, let the protocol retry against it, then
	// restore: the pending packet must deliver with no attempt cap needed.
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1})
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 0, B: 0}); err != nil {
		t.Fatal(err)
	}
	aud := check.New(check.Options{})
	n.AttachAudit(aud)
	n.Send(0, 9, 0)
	netsim.Drive(n, nil, netsim.DriveOptions{Deadline: sim.Time(20 * sim.Microsecond), Aud: aud})
	if n.Stats.Delivered != 0 || n.Stats.FaultDrops == 0 {
		t.Fatalf("construction broke: delivered=%d faultDrops=%d while the switch is dead",
			n.Stats.Delivered, n.Stats.FaultDrops)
	}
	if err := n.ApplyFault(faults.Event{Action: faults.RestoreSwitch, A: 0, B: 0}); err != nil {
		t.Fatal(err)
	}
	more, _ := netsim.Drive(n, nil, netsim.DriveOptions{Deadline: sim.Time(2 * sim.Millisecond), Aud: aud})
	if more {
		t.Error("run did not drain after restoration")
	}
	if err := aud.Err(); err != nil {
		t.Error(err)
	}
	if n.Stats.Delivered != 1 || n.Stats.GaveUp != 0 {
		t.Errorf("delivered=%d gaveUp=%d after restore, want 1 and 0", n.Stats.Delivered, n.Stats.GaveUp)
	}
}

func TestSetTestModeValidation(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1})
	if err := n.SetTestMode(5); err == nil {
		t.Error("path >= multiplicity accepted")
	}
	if err := n.SetTestMode(1); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := n.SetTestMode(-1); err != nil {
		t.Errorf("clearing test mode failed: %v", err)
	}
}

func TestFaultDropsTraffic(t *testing.T) {
	// Inject a stage-0 fault at the switch serving nodes 0 and 1: all
	// their transmissions must be lost; other sources are unaffected.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1, DisableRetransmit: true})
	if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 0, B: 0}); err != nil {
		t.Fatal(err)
	}
	if n.ProbePath(0, 33) {
		t.Error("probe through the faulty switch was delivered")
	}
	if !n.ProbePath(5, 33) {
		t.Error("probe avoiding the faulty switch was lost")
	}
}

func TestProbePathPanicsWithProtocolOn(t *testing.T) {
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("ProbePath with retransmission enabled did not panic")
		}
	}()
	n.ProbePath(0, 9)
}

func TestEndToEndDiagnosis(t *testing.T) {
	// The full Sec IV-F procedure against the live simulator: force
	// deterministic single-path routing, probe pairs, and let the
	// diagnosis engine isolate the injected fault using the observed
	// failures.
	for _, fault := range []reliability.FaultySwitch{
		{Stage: 1, Switch: 7},
		{Stage: 4, Switch: 20},
	} {
		n := mustNew(t, Config{Nodes: 64, Multiplicity: 3, Seed: 5, DisableRetransmit: true})
		if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: fault.Stage, B: int(fault.Switch)}); err != nil {
			t.Fatal(err)
		}
		const path = 1
		if err := n.SetTestMode(path); err != nil {
			t.Fatal(err)
		}
		oracle := func(src, dst int) bool { return !n.ProbePath(src, dst) }
		got, err := reliability.Diagnose(n.Wiring(), path, oracle)
		if err != nil {
			t.Fatalf("fault %+v: %v", fault, err)
		}
		if got != fault {
			t.Errorf("diagnosed %+v, want %+v", got, fault)
		}
	}
}

// TestProbePathShardCountInvariant runs the Sec IV-F diagnosis against a
// network sharded K ∈ {1, 2, 4} ways: every probe's outcome, the diagnosed
// switch, the clock after the last probe and the ledger must agree.
func TestProbePathShardCountInvariant(t *testing.T) {
	type outcome struct {
		Lost   []bool
		Found  reliability.FaultySwitch
		Now    sim.Time
		Ledger netsim.Ledger
	}
	var ref outcome
	for _, k := range []int{1, 2, 4} {
		n := mustNew(t, Config{Nodes: 64, Multiplicity: 3, Seed: 5, DisableRetransmit: true, Shards: k})
		if err := n.ApplyFault(faults.Event{Action: faults.KillSwitch, A: 4, B: 20}); err != nil {
			t.Fatal(err)
		}
		const path = 1
		if err := n.SetTestMode(path); err != nil {
			t.Fatal(err)
		}
		var got outcome
		oracle := func(src, dst int) bool {
			lost := !n.ProbePath(src, dst)
			got.Lost = append(got.Lost, lost)
			return lost
		}
		found, err := reliability.Diagnose(n.Wiring(), path, oracle)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		got.Found = found
		got.Now, got.Ledger = n.Engine().Now(), n.Ledger()
		if k == 1 {
			if got.Found != (reliability.FaultySwitch{Stage: 4, Switch: 20}) || got.Ledger.Injected == 0 {
				t.Fatalf("serial diagnosis broke: %+v", got)
			}
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("K=%d diagnosis diverged:\n got %+v\nwant %+v", k, got, ref)
		}
	}
}

func TestTestModeRestrictsPaths(t *testing.T) {
	// In test mode two simultaneous packets to the same switch direction
	// collide even though multiplicity would normally separate them.
	run := func(testMode bool) uint64 {
		n := mustNew(t, Config{Nodes: 16, Multiplicity: 2, Seed: 2, DisableRetransmit: true})
		if testMode {
			if err := n.SetTestMode(0); err != nil {
				t.Fatal(err)
			}
		}
		n.Send(0, 9, 0)
		n.Send(1, 9, 0) // same first-stage switch, same direction
		drain(t, n)
		return n.Stats.DataDrops
	}
	if drops := run(false); drops != 0 {
		t.Errorf("multi-path mode dropped %d packets", drops)
	}
	if drops := run(true); drops == 0 {
		t.Error("test mode did not serialize onto a single path")
	}
}

func TestProbePathIgnoresCoexistingWorkload(t *testing.T) {
	// Regression: ProbePath's delivery observer used to key on the
	// (src, dst, size=64) signature, so a coexisting 64-byte workload
	// packet with the same endpoints registered as a probe delivery even
	// when the probe itself was dropped.
	//
	// Construction: nodes 0 and 1 share the stage-0 injection switch.
	// With multiplicity 1, a blocker from node 0 sent at t=0 wins the
	// simultaneous stage-0 arbitration against the probe (lower actor
	// key), so the probe is dropped. A 64-byte workload packet from the
	// probe's own (src, dst) pair, serialized behind the probe on node 1's
	// injection wire, arrives exactly as the blocker releases the switch
	// and is delivered. The probe must still report failure.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 1, Seed: 1, DisableRetransmit: true})
	n.Send(0, 33, 0) // blocker: occupies stage-0 switch 0 when the probe's head arrives
	n.ScheduleNode(1, sim.Time(5*sim.Nanosecond), sim.EventFunc(func() {
		n.Send(1, 33, 64) // workload packet matching the probe's old signature
	}))
	if n.ProbePath(1, 33) {
		t.Error("dropped probe reported delivered (workload packet matched the probe signature)")
	}
	if n.Stats.DataDrops != 1 {
		t.Fatalf("construction broke: %d drops, want exactly the probe dropped", n.Stats.DataDrops)
	}
	if n.Stats.Delivered != 2 {
		t.Fatalf("construction broke: %d delivered, want blocker + workload", n.Stats.Delivered)
	}
}

func TestProbePathRemovesOnlyItsObserver(t *testing.T) {
	// Regression: ProbePath used to strip the *last* delivery observer on
	// exit, so an observer registered while the probe was in flight was
	// removed in place of the probe's own. Every user observer must keep
	// firing after a probe.
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1, DisableRetransmit: true})
	var aCount, bCount int
	n.OnDeliver(func(int, *netsim.Packet, sim.Time) { aCount++ })
	// Registered from an event at t=0, while the probe is in flight.
	n.ScheduleNode(0, 0, sim.EventFunc(func() {
		n.OnDeliver(func(int, *netsim.Packet, sim.Time) { bCount++ })
	}))
	if !n.ProbePath(0, 9) {
		t.Fatal("probe lost on a healthy network")
	}
	a0, b0 := aCount, bCount
	n.Send(0, 9, 0)
	drain(t, n)
	if aCount != a0+1 || bCount != b0+1 {
		t.Errorf("observer counts after follow-up delivery: a +%d, b +%d, want +1 each",
			aCount-a0, bCount-b0)
	}
}
