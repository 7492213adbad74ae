package gatesim

import (
	"testing"

	"baldur/internal/optsig"
)

// The two-requester cases are the 2x2 switch's per-output arbiter.

func TestArbiterMutualExclusion(t *testing.T) {
	c := New(Config{})
	r0 := c.NewNode("r0")
	r1 := c.NewNode("r1")
	arb := c.NewArbiterN([]Node{r0, r1}, "arb")
	g0p := c.Probe(arb.Grants[0])
	g1p := c.Probe(arb.Grants[1])
	// r0 requests first and holds; r1 requests while r0 held.
	c.PlaySignal(r0, pulseAt(10000, 50000))
	c.PlaySignal(r1, pulseAt(20000, 20000)) // gives up before r0 releases
	c.Run(200000)
	if g1p.NumEdges() != 0 {
		t.Errorf("grant1 fired while grant0 held: %v", g1p)
	}
	p := g0p.Pulses()
	if len(p) != 1 {
		t.Fatalf("grant0 pulses = %v", p)
	}
	if p[0].Start < 10000 || p[0].End < 60000 {
		t.Errorf("grant0 window = %v", p[0])
	}
}

func TestArbiterDoesNotQueueLosers(t *testing.T) {
	// A request asserted while the resource is held must never be granted
	// for that assertion, even after the holder releases: the losing
	// packet has already streamed past (bufferless drop semantics).
	c := New(Config{})
	r0 := c.NewNode("r0")
	r1 := c.NewNode("r1")
	arb := c.NewArbiterN([]Node{r0, r1}, "arb")
	g1p := c.Probe(arb.Grants[1])
	c.PlaySignal(r0, pulseAt(10000, 20000))
	c.PlaySignal(r1, pulseAt(15000, 50000)) // still pending when r0 drops
	c.Run(200000)
	if g1p.NumEdges() != 0 {
		t.Errorf("stale request was granted: %v", g1p)
	}
	if c.GateCount() != 4 {
		t.Errorf("arbiter gate count = %d, want 4", c.GateCount())
	}
}

func TestArbiterGrantsReassertedRequest(t *testing.T) {
	// The same port wins if it re-asserts after the holder released.
	c := New(Config{})
	r0 := c.NewNode("r0")
	r1 := c.NewNode("r1")
	arb := c.NewArbiterN([]Node{r0, r1}, "arb")
	g1p := c.Probe(arb.Grants[1])
	c.PlaySignal(r0, pulseAt(10000, 20000))
	var s1 optsig.Signal
	s1.AddPulse(15000, 10000) // loses (asserted while busy)
	s1.AddPulse(40000, 10000) // re-asserted after release: wins
	c.PlaySignal(r1, &s1)
	c.Run(200000)
	p := g1p.Pulses()
	if len(p) != 1 {
		t.Fatalf("grant1 pulses = %v, want exactly the re-assertion", p)
	}
	if p[0].Start < 40000 {
		t.Errorf("grant1 at %d, want >= 40000", p[0].Start)
	}
}

func TestArbiterNeverDoubleGrants(t *testing.T) {
	// Fire many overlapping request pulses and assert the invariant that
	// both grants are never simultaneously high.
	c := New(Config{})
	r0 := c.NewNode("r0")
	r1 := c.NewNode("r1")
	arb := c.NewArbiterN([]Node{r0, r1}, "arb")
	var s0, s1 optsig.Signal
	for i := Fs(0); i < 50; i++ {
		s0.AddPulse(i*40000, 17000+(i%5)*3000)
		s1.AddPulse(i*40000+7000, 15000+(i%7)*2000)
	}
	c.PlaySignal(r0, &s0)
	c.PlaySignal(r1, &s1)
	g0p := c.Probe(arb.Grants[0])
	g1p := c.Probe(arb.Grants[1])
	c.Run(50 * 40000 * 2)
	// Merge edge streams and track both levels.
	var l0, l1 bool
	i, j := 0, 0
	e0, e1 := g0p.Edges(), g1p.Edges()
	for i < len(e0) || j < len(e1) {
		if j >= len(e1) || (i < len(e0) && e0[i].T <= e1[j].T) {
			l0 = e0[i].Level
			i++
		} else {
			l1 = e1[j].Level
			j++
		}
		if l0 && l1 {
			t.Fatal("both grants high simultaneously")
		}
	}
}

func TestArbiterNMutualExclusion(t *testing.T) {
	c := New(Config{})
	reqs := make([]Node, 4)
	for i := range reqs {
		reqs[i] = c.NewNode("r")
	}
	arb := c.NewArbiterN(reqs, "arb")
	probes := make([]*optsig.Signal, 4)
	for i, g := range arb.Grants {
		probes[i] = c.Probe(g)
	}
	// Staggered overlapping requests from all four ports.
	for i := range reqs {
		var s optsig.Signal
		for k := optsig.Fs(0); k < 30; k++ {
			s.AddPulse(k*50000+optsig.Fs(i)*9000, 22000)
		}
		c.PlaySignal(reqs[i], &s)
	}
	c.Run(50000 * 40)

	// Merge all grant edges and verify at most one is high at any time.
	type ev struct {
		t     Fs
		idx   int
		level bool
	}
	var evs []ev
	for i, p := range probes {
		for _, e := range p.Edges() {
			evs = append(evs, ev{t: e.T, idx: i, level: e.Level})
		}
	}
	// Insertion sort by time (small N).
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].t < evs[j-1].t; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	high := map[int]bool{}
	for _, e := range evs {
		if e.level {
			high[e.idx] = true
		} else {
			delete(high, e.idx)
		}
		if len(high) > 1 {
			t.Fatalf("multiple grants high at %d: %v", e.t, high)
		}
	}
	if len(evs) == 0 {
		t.Fatal("no grants at all")
	}
}

func TestArbiterNStaleSemantics(t *testing.T) {
	c := New(Config{})
	reqs := []Node{c.NewNode("a"), c.NewNode("b"), c.NewNode("c")}
	arb := c.NewArbiterN(reqs, "arb")
	g1 := c.Probe(arb.Grants[1])
	g2 := c.Probe(arb.Grants[2])
	// Port 0 holds; ports 1 and 2 request while busy and give up.
	c.PlaySignal(reqs[0], pulseAt(10000, 50000))
	c.PlaySignal(reqs[1], pulseAt(20000, 60000)) // outlives port 0: still stale
	var s2 optsig.Signal
	s2.AddPulse(25000, 10000) // stale attempt
	s2.AddPulse(70000, 10000) // re-assertion after release: wins
	c.PlaySignal(reqs[2], &s2)
	c.Run(300000)
	if g1.NumEdges() != 0 {
		t.Errorf("stale request on port 1 was granted: %v", g1)
	}
	p := g2.Pulses()
	if len(p) != 1 || p[0].Start < 70000 {
		t.Errorf("port 2 re-assertion not granted cleanly: %v", p)
	}
}

func TestArbiterNGateCost(t *testing.T) {
	c := New(Config{})
	reqs := make([]Node, 8)
	for i := range reqs {
		reqs[i] = c.NewNode("r")
	}
	c.NewArbiterN(reqs, "arb")
	if got := c.GateCount(); got != 16 {
		t.Errorf("8-way arbiter gate count = %d, want 16", got)
	}
}

func TestArbiterNPanicsOnTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-requester arbiter did not panic")
		}
	}()
	c := New(Config{})
	c.NewArbiterN([]Node{c.NewNode("r")}, "arb")
}

func TestNumHelper(t *testing.T) {
	if num(7) != "7" || num(12) != "12" {
		t.Errorf("num formatting wrong: %q %q", num(7), num(12))
	}
}

func TestCircuitNow(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	c.Buf(in, "out")
	c.PlaySignal(in, pulseAt(1000, 1000))
	c.Run(5000)
	if c.Now() == 0 {
		t.Error("Now() did not advance")
	}
}

func TestDelayWithVariationStaysPositive(t *testing.T) {
	c := New(Config{WaveguideVariation: 5000, Seed: 2})
	in := c.NewNode("in")
	out := c.Delay(in, 1000, "d") // variation exceeds nominal: must clamp to >= 1
	probe := c.Probe(out)
	c.PlaySignal(in, pulseAt(10000, 5000))
	c.Run(100000)
	if probe.NumEdges() != 2 {
		t.Errorf("delay element broken under large variation: %v", probe)
	}
}
