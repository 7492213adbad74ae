package faults

import (
	"testing"

	"baldur/internal/sim"
)

func TestCompileDeterminism(t *testing.T) {
	spec := ScriptSpec{
		Name: "mixed",
		Events: []EventSpec{
			{AtUS: 10, Action: "kill", Target: TargetSpec{Kind: "switch", A: 1, B: 2}},
			{AtUS: 20, Action: "degrade", Prob: 0.1},
		},
		Flaps:  []FlapSpec{{Target: TargetSpec{Kind: "link", A: 3}, StartUS: 5, PeriodUS: 10, Duty: 0.5, Count: 3}},
		Bursts: []BurstSpec{{Kind: "node", AtUS: 15, K: 4, AMax: 32, RestoreUS: 30}},
	}
	a, err := spec.Compile(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Compile(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed compiled to %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across identical compiles: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatalf("events not time-sorted at %d: %v after %v", i, a.Events[i].At, a.Events[i-1].At)
		}
	}
	// Expected size: 2 explicit + 3 flap cycles x 2 + 4 burst victims x 2.
	if want := 2 + 6 + 8; len(a.Events) != want {
		t.Errorf("compiled %d events, want %d", len(a.Events), want)
	}
}

func TestCompileBurstSeedVariesVictims(t *testing.T) {
	spec := ScriptSpec{Bursts: []BurstSpec{{Kind: "switch", AtUS: 1, K: 3, AMax: 1000}}}
	a, err := spec.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("burst victim set identical across different seeds (1000-cell box)")
	}
}

func TestFlapExpansion(t *testing.T) {
	spec := ScriptSpec{
		Flaps: []FlapSpec{{Target: TargetSpec{Kind: "switch", A: 2, B: 1}, StartUS: 10, PeriodUS: 20, Duty: 0.25, Count: 2}},
	}
	s, err := spec.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: usTime(10), Action: KillSwitch, A: 2, B: 1},
		{At: usTime(15), Action: RestoreSwitch, A: 2, B: 1},
		{At: usTime(30), Action: KillSwitch, A: 2, B: 1},
		{At: usTime(35), Action: RestoreSwitch, A: 2, B: 1},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("compiled %d events, want %d", len(s.Events), len(want))
	}
	for i := range want {
		if s.Events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, s.Events[i], want[i])
		}
	}
}

func TestCompileValidation(t *testing.T) {
	bad := []ScriptSpec{
		{Events: []EventSpec{{AtUS: 1, Action: "explode"}}},
		{Events: []EventSpec{{AtUS: 1, Action: "kill", Target: TargetSpec{Kind: "galaxy"}}}},
		{Events: []EventSpec{{AtUS: 1, Action: "degrade", Prob: 1.5}}},
		{Events: []EventSpec{{AtUS: 1, Action: "degrade"}}}, // prob 0
		{Flaps: []FlapSpec{{Target: TargetSpec{Kind: "switch"}, PeriodUS: 0, Duty: 0.5}}},
		{Flaps: []FlapSpec{{Target: TargetSpec{Kind: "switch"}, PeriodUS: 5, Duty: 0}}},
		{Bursts: []BurstSpec{{Kind: "node", K: 5, AMax: 2}}}, // k > box
		{Bursts: []BurstSpec{{Kind: "node", K: 0, AMax: 2}}},
		{Flaps: []FlapSpec{{Target: TargetSpec{Kind: "node"}, PeriodUS: 1, Duty: 1, Count: -1}}},
		// Sizes past the script bound, and a box whose area overflows int.
		{Flaps: []FlapSpec{{Target: TargetSpec{Kind: "node"}, PeriodUS: 1, Duty: 1, Count: 1 << 40}}},
		{Bursts: []BurstSpec{{Kind: "node", K: 1 << 40, AMax: 1 << 41}}},
		{Bursts: []BurstSpec{{Kind: "link", K: 4, AMax: 1<<62 + 1, BMax: 4}}},
	}
	for i, spec := range bad {
		if _, err := spec.Compile(1); err == nil {
			t.Errorf("bad spec %d compiled without error: %+v", i, spec)
		}
	}
}

func TestParseScripts(t *testing.T) {
	data := []byte(`[
	  {"name": "a", "events": [{"at_us": 3, "action": "kill", "target": {"kind": "node", "a": 5}}]},
	  {"name": "b", "incasts": [{"at_us": 1, "target": 0, "sources": 4, "packets": 8}]}
	]`)
	specs, err := ParseScripts(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].Name != "b" {
		t.Fatalf("parsed %+v", specs)
	}
	s, err := specs[1].Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 || s.Events[0].Action != StartIncast || s.Events[0].Count != 4 {
		t.Fatalf("incast compiled to %+v", s.Events)
	}
	if _, err := ParseScripts([]byte("{")); err == nil {
		t.Error("malformed JSON parsed without error")
	}
}

func TestControllerOrdering(t *testing.T) {
	s := Script{Name: "t", Events: []Event{
		{At: sim.Time(10), Action: KillSwitch, A: 1},
		{At: sim.Time(20), Action: RestoreSwitch, A: 1},
	}}
	c := NewController(s)
	if !c.Pending() {
		t.Fatal("fresh controller reports nothing pending")
	}
	at, ok := c.NextAt()
	if !ok || at != sim.Time(10) {
		t.Fatalf("NextAt = %v, %v", at, ok)
	}
}

func TestActionStrings(t *testing.T) {
	for a := KillSwitch; a <= StartIncast; a++ {
		if a.String() == "" || a.String() == "unknown" {
			t.Errorf("action %d has no name", a)
		}
	}
	for _, kill := range []Action{KillSwitch, KillLink, KillNode} {
		if restoreOf(kill) != kill+1 {
			t.Errorf("restoreOf(%v) = %v", kill, restoreOf(kill))
		}
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	if b.Get(100) || b.Any() || b.Count() != 0 {
		t.Fatal("empty bitset reports membership")
	}
	if !b.Set(70) {
		t.Error("first Set reported already-set")
	}
	if b.Set(70) {
		t.Error("second Set reported newly-set")
	}
	if !b.Get(70) || !b.Any() || b.Count() != 1 {
		t.Error("set bit not visible")
	}
	if b.Get(71) || b.Get(6) {
		t.Error("phantom bits")
	}
	if !b.Clear(70) {
		t.Error("Clear reported bit was not set")
	}
	if b.Clear(70) || b.Clear(5000) {
		t.Error("Clear of unset bit reported was-set")
	}
	b.Set(3)
	b.Set(200)
	b.Reset()
	if b.Any() || b.Count() != 0 {
		t.Error("Reset left bits behind")
	}
}
