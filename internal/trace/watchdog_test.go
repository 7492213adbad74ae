package trace

import (
	"reflect"
	"strings"
	"testing"

	"baldur/internal/core"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// TestWatchdogDiagnosesSpinningReplay injects a fault that drops every
// packet of the only path (multiplicity 1), so the reliability protocol
// retransmits forever. Without a watchdog the replay would spin; with one
// it must stop after the window and name the blocked rank and its pending
// Recv peer — the same report at K=1 and K=2.
func TestWatchdogDiagnosesSpinningReplay(t *testing.T) {
	var ref *StuckReport
	for _, k := range []int{1, 2} {
		n, err := core.New(core.Config{Nodes: 4, Multiplicity: 1, Seed: 1, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InjectFault(core.FaultSpec{Stage: 0, Switch: 0}); err != nil {
			t.Fatal(err)
		}
		w := &Workload{
			Name: "spin",
			Programs: []Program{
				{{Kind: OpSend, Peer: 1, Bytes: 512}},
				{{Kind: OpRecv, Peer: 0, Bytes: 512}},
			},
		}
		r, err := NewReplayer(n, w)
		if err != nil {
			t.Fatal(err)
		}
		r.Watchdog = 50 * sim.Microsecond
		st := r.Run()
		if st.Completed {
			t.Fatalf("K=%d: faulted replay reported completion", k)
		}
		if st.Stuck == nil {
			t.Fatalf("K=%d: watchdog did not produce a stuck report", k)
		}
		if k > 1 {
			if !reflect.DeepEqual(st.Stuck, ref) {
				t.Errorf("K=%d report %+v differs from K=1's %+v", k, st.Stuck, ref)
			}
			continue
		}
		ref = st.Stuck
		if st.Stuck.Deadlock {
			t.Error("spinning replay misdiagnosed as deadlock (events were still executing)")
		}
		if st.Stuck.Window != r.Watchdog {
			t.Errorf("report window = %v, want %v", st.Stuck.Window, r.Watchdog)
		}
		if len(st.Stuck.Ranks) != 1 {
			t.Fatalf("stuck ranks = %+v, want exactly rank 1", st.Stuck.Ranks)
		}
		sr := st.Stuck.Ranks[0]
		if sr.Rank != 1 || !sr.Waiting || sr.Peer != 0 || sr.Need != 1 {
			t.Errorf("stuck rank = %+v, want rank 1 waiting on 1 packet from rank 0", sr)
		}
		msg := st.Stuck.String()
		if !strings.Contains(msg, "no rank progressed") || !strings.Contains(msg, "rank 1") {
			t.Errorf("diagnostic %q should name the window and the blocked rank", msg)
		}
	}
}

// TestWatchdogReportsDrainedDeadlock builds a circular wait: both ranks
// Recv before either Sends, so no packet is ever injected and the network
// drains immediately with both ranks blocked — the same report at K=1 and
// K=2.
func TestWatchdogReportsDrainedDeadlock(t *testing.T) {
	w := &Workload{
		Name: "cycle",
		Programs: []Program{
			{{Kind: OpRecv, Peer: 1, Bytes: 512}, {Kind: OpSend, Peer: 1, Bytes: 512}},
			{{Kind: OpRecv, Peer: 0, Bytes: 512}, {Kind: OpSend, Peer: 0, Bytes: 512}},
		},
	}
	for _, watchdog := range []sim.Duration{0, 10 * sim.Microsecond} {
		var ref *StuckReport
		for _, k := range []int{1, 2} {
			// A deadlocked replayer leaves its delivery callback behind, so
			// every run gets a fresh network.
			n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1, Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReplayer(n, w)
			if err != nil {
				t.Fatal(err)
			}
			r.Watchdog = watchdog
			st := r.Run()
			if st.Completed || st.Stuck == nil {
				t.Fatalf("watchdog=%v K=%d: deadlock not reported: %+v", watchdog, k, st)
			}
			if k > 1 {
				if !reflect.DeepEqual(st.Stuck, ref) {
					t.Errorf("watchdog=%v K=%d report %+v differs from K=1's %+v", watchdog, k, st.Stuck, ref)
				}
				continue
			}
			ref = st.Stuck
			if !st.Stuck.Deadlock {
				t.Errorf("watchdog=%v: drained engine should report Deadlock", watchdog)
			}
			if len(st.Stuck.Ranks) != 2 {
				t.Fatalf("watchdog=%v: stuck ranks = %+v, want both", watchdog, st.Stuck.Ranks)
			}
			for i, sr := range st.Stuck.Ranks {
				if sr.Rank != i || !sr.Waiting || sr.Peer != 1-i {
					t.Errorf("stuck rank %d = %+v, want waiting on rank %d", i, sr, 1-i)
				}
			}
			if msg := st.Stuck.String(); !strings.Contains(msg, "deadlock") {
				t.Errorf("diagnostic %q should say deadlock", msg)
			}
		}
	}
}

// TestWatchdogDoesNotTripOnComputeGaps runs a workload whose only long
// stretch is an idle compute delay far longer than the watchdog window; the
// idle-gap fast-forward must keep the replay alive to completion with the
// same makespan as an unwatched run, at K=1 and K=2.
func TestWatchdogDoesNotTripOnComputeGaps(t *testing.T) {
	mk := func(k int) (*Replayer, error) {
		n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1, Shards: k})
		if err != nil {
			return nil, err
		}
		return NewReplayer(n, &Workload{
			Name: "gap",
			Programs: []Program{
				{
					{Kind: OpSend, Peer: 1, Bytes: 512},
					{Kind: OpCompute, Dur: 500 * sim.Microsecond},
					{Kind: OpSend, Peer: 1, Bytes: 512},
				},
				{
					{Kind: OpRecv, Peer: 0, Bytes: 512},
					{Kind: OpRecv, Peer: 0, Bytes: 512},
				},
			},
		})
	}
	plain, err := mk(1)
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()
	if !base.Completed {
		t.Fatal("baseline replay did not complete")
	}
	for _, k := range []int{1, 2} {
		watched, err := mk(k)
		if err != nil {
			t.Fatal(err)
		}
		watched.Watchdog = 20 * sim.Microsecond
		st := watched.Run()
		if !st.Completed {
			t.Fatalf("K=%d: watchdog tripped on an idle compute gap: %+v", k, st.Stuck)
		}
		if st.Makespan != base.Makespan {
			t.Errorf("K=%d: watched makespan %v != plain %v", k, st.Makespan, base.Makespan)
		}
	}
}

// TestReplayTelemetrySampling attaches a telemetry layer to a replay and
// checks that interval samples are taken and the delivered counter sums to
// the packet count, without perturbing the makespan.
func TestReplayTelemetrySampling(t *testing.T) {
	mk := func(tel *telemetry.Telemetry) (*Replayer, error) {
		n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1})
		if err != nil {
			return nil, err
		}
		if tel != nil {
			n.AttachTelemetry(tel)
		}
		r, err := NewReplayer(n, &Workload{
			Name: "sampled",
			Programs: []Program{
				{{Kind: OpSend, Peer: 1, Bytes: 512}, {Kind: OpCompute, Dur: 30 * sim.Microsecond}, {Kind: OpSend, Peer: 1, Bytes: 512}},
				{{Kind: OpRecv, Peer: 0, Bytes: 512}, {Kind: OpRecv, Peer: 0, Bytes: 512}},
			},
		})
		if err != nil {
			return nil, err
		}
		r.Tel = tel
		return r, nil
	}
	plain, err := mk(nil)
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()

	tel := telemetry.New(telemetry.Options{SampleInterval: 5 * sim.Microsecond}, 1)
	watched, err := mk(tel)
	if err != nil {
		t.Fatal(err)
	}
	st := watched.Run()
	if !st.Completed {
		t.Fatalf("sampled replay did not complete: %+v", st.Stuck)
	}
	if st.Makespan != base.Makespan {
		t.Errorf("sampled makespan %v != plain %v", st.Makespan, base.Makespan)
	}
	if len(tel.Sampler.Samples) == 0 {
		t.Fatal("no telemetry samples taken during replay")
	}
	id := tel.Reg.Index("delivered")
	var sum uint64
	for _, sm := range tel.Sampler.Samples {
		sum += sm.Values[id]
	}
	if sum != st.Packets {
		t.Errorf("sampled delivered sum = %d, want %d packets", sum, st.Packets)
	}
}
