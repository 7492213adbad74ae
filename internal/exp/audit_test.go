package exp

import (
	"testing"

	"baldur/internal/check"
)

// TestRunOpenLoopAudited drives every auditable network through the harness
// with the invariant-audit layer armed, serial and sharded: zero violations,
// and the measured Point must be identical to an unaudited run (auditing
// verifies, never perturbs).
func TestRunOpenLoopAudited(t *testing.T) {
	sc := Quick
	sc.PacketsPerNode = 20
	for _, network := range []string{"baldur", "multibutterfly", "dragonfly", "fattree"} {
		base, err := RunOpenLoop(network, "random_permutation", 0.5, sc)
		if err != nil {
			t.Fatalf("%s unaudited: %v", network, err)
		}
		for _, shards := range []int{1, 4} {
			asc := sc
			asc.Shards = shards
			asc.Audit = &check.Options{}
			p, err := RunOpenLoop(network, "random_permutation", 0.5, asc)
			if err != nil {
				t.Errorf("%s K=%d audited: %v", network, shards, err)
				continue
			}
			if p != base {
				t.Errorf("%s K=%d: audited point %+v != unaudited %+v", network, shards, p, base)
			}
		}
	}
}

// TestRunOpenLoopAuditSkipsIdeal checks the analytic ideal network runs
// cleanly with Audit set: it implements no audit hooks and must simply stay
// unaudited rather than fail.
func TestRunOpenLoopAuditSkipsIdeal(t *testing.T) {
	sc := Quick
	sc.PacketsPerNode = 20
	sc.Audit = &check.Options{}
	if _, err := RunOpenLoop("ideal", "random_permutation", 0.5, sc); err != nil {
		t.Fatalf("ideal with Audit set: %v", err)
	}
}

// TestRunPingPongAudited exercises the closed-loop runner's audit wiring.
func TestRunPingPongAudited(t *testing.T) {
	sc := Quick
	sc.PacketsPerNode = 5
	sc.Audit = &check.Options{}
	p, err := RunPingPong("baldur", "ping_pong1", sc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Finished {
		t.Error("audited ping-pong run did not finish")
	}
}

// TestRunTraceAudited replays the AMG and FB traces on every auditable
// network with the invariant-audit layer armed: the trace cell must
// checkpoint, finish, and measure exactly the Point an unaudited replay does.
func TestRunTraceAudited(t *testing.T) {
	for _, wl := range []string{"AMG", "FB"} {
		for _, network := range []string{"baldur", "multibutterfly", "dragonfly", "fattree"} {
			base, err := RunTrace(network, wl, Quick)
			if err != nil {
				t.Fatalf("%s/%s unaudited: %v", network, wl, err)
			}
			sc := Quick
			sc.Audit = &check.Options{}
			p, c, err := runTrace(network, wl, sc)
			if err != nil {
				t.Fatalf("%s/%s audited: %v", network, wl, err)
			}
			if p != base {
				t.Errorf("%s/%s: audited point %+v != unaudited %+v", network, wl, p, base)
			}
			if !p.Finished {
				t.Errorf("%s/%s: audited replay did not finish", network, wl)
			}
			if n := c.drive.Aud.Checkpoints(); n == 0 {
				t.Errorf("%s/%s: the cell's auditor ran no checkpoints", network, wl)
			}
		}
	}
}

// TestTable5AndAblationsAudited runs Table V serially and the ablation
// suite sharded with the invariant-audit layer armed: every variant cell
// must pass its checkpoints and measure exactly what an unaudited serial
// run does.
func TestTable5AndAblationsAudited(t *testing.T) {
	audited := func(sc Scale) Scale {
		sc.Audit = &check.Options{}
		return sc
	}
	sameRows(t, "table5", Table5, Quick, audited(Quick))
	sameRows(t, "ablations", Ablations, ablationScale(), audited(withShards(ablationScale(), 2)))
}
