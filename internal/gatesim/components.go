package gatesim

import (
	"baldur/internal/optsig"
	"baldur/internal/sim"
)

// logicGate is a generic active TL gate: output = fn(inputs) after the gate
// delay. Multi-input TL gates cost the same power/delay as an inverter
// because only the output TL limits speed (Sec III), but the paper limits
// fan-in to 2 for waveguide-routing reasons; we enforce that too.
type logicGate struct {
	in     []bool
	fn     func([]bool) bool
	out    outputDriver
	prev   bool
	primed bool
}

func (g *logicGate) inputChanged(c *Circuit, port int, level bool) {
	g.in[port] = level
	next := g.fn(g.in)
	if g.primed && next == g.prev {
		return
	}
	g.prev = next
	g.primed = true
	g.out.drive(next)
}

func (c *Circuit) newGate(nIn int, fn func([]bool) bool, inputs []Node, outName string) Node {
	if len(inputs) != nIn {
		panic("gatesim: wrong input count")
	}
	if nIn > 2 {
		panic("gatesim: TL gates are limited to 2 inputs (waveguide routing)")
	}
	out := c.NewNode(outName)
	g := &logicGate{
		in:  make([]bool, nIn),
		fn:  fn,
		out: outputDriver{c: c, out: out, delay: c.gateDelayFor()},
	}
	c.gateCount++
	for i, n := range inputs {
		c.attach(n, g, i)
		g.in[i] = c.nodes[n].level
	}
	// Establish the initial output level without an event: dark inputs
	// produce the gate's quiescent output. For inverting gates that means
	// the output idles lit, which is physical (the output TL lases).
	g.prev = fn(g.in)
	g.primed = true
	c.nodes[out].level = g.prev
	c.nodes[out].driven = true
	return out
}

// Not returns a node carrying NOT in, after one gate delay.
func (c *Circuit) Not(in Node, name string) Node {
	return c.newGate(1, func(v []bool) bool { return !v[0] }, []Node{in}, name)
}

// Buf returns a node carrying in delayed by one gate (a TL repeater).
func (c *Circuit) Buf(in Node, name string) Node {
	return c.newGate(1, func(v []bool) bool { return v[0] }, []Node{in}, name)
}

// And returns a AND b.
func (c *Circuit) And(a, b Node, name string) Node {
	return c.newGate(2, func(v []bool) bool { return v[0] && v[1] }, []Node{a, b}, name)
}

// Or returns a OR b as an active gate (for the rare places the design needs
// regeneration; most ORing uses the passive Combine).
func (c *Circuit) Or(a, b Node, name string) Node {
	return c.newGate(2, func(v []bool) bool { return v[0] || v[1] }, []Node{a, b}, name)
}

// Nor returns NOT(a OR b).
func (c *Circuit) Nor(a, b Node, name string) Node {
	return c.newGate(2, func(v []bool) bool { return !(v[0] || v[1]) }, []Node{a, b}, name)
}

// Nand returns NOT(a AND b).
func (c *Circuit) Nand(a, b Node, name string) Node {
	return c.newGate(2, func(v []bool) bool { return !(v[0] && v[1]) }, []Node{a, b}, name)
}

// AndNot returns a AND NOT b. It is the edge-comparison primitive of the
// line activity detector and costs one gate (the inversion is the TL
// photodetector in the pull-down branch, as in the NOR construction).
func (c *Circuit) AndNot(a, b Node, name string) Node {
	return c.newGate(2, func(v []bool) bool { return v[0] && !v[1] }, []Node{a, b}, name)
}

// combiner is a passive optical combiner: output is the OR of all inputs,
// with no delay and no power (Sec III lists combiners among the passive
// elements).
type combiner struct {
	in  []bool
	out Node
}

func (m *combiner) inputChanged(c *Circuit, port int, level bool) {
	m.in[port] = level
	any := false
	for _, v := range m.in {
		if v {
			any = true
			break
		}
	}
	c.setLevel(m.out, any)
}

// Combine returns the passive OR of the inputs.
func (c *Circuit) Combine(name string, inputs ...Node) Node {
	if len(inputs) == 0 {
		panic("gatesim: Combine with no inputs")
	}
	out := c.NewNode(name)
	m := &combiner{in: make([]bool, len(inputs)), out: out}
	c.passiveCount++
	for i, n := range inputs {
		c.attach(n, m, i)
		m.in[i] = c.nodes[n].level
	}
	c.nodes[out].driven = true
	return out
}

// waveguide is a passive delay element.
type waveguide struct {
	out outputDriver
}

func (w *waveguide) inputChanged(c *Circuit, port int, level bool) {
	w.out.drive(level)
}

// Delay returns in delayed by d (plus the configured static waveguide
// variation, drawn once at build time).
func (c *Circuit) Delay(in Node, d Fs, name string) Node {
	if c.cfg.WaveguideVariation > 0 {
		span := int(2*c.cfg.WaveguideVariation) + 1
		d += Fs(c.rng.Intn(span)) - c.cfg.WaveguideVariation
	}
	if d < 1 {
		d = 1
	}
	out := c.NewNode(name)
	w := &waveguide{out: outputDriver{c: c, out: out, delay: d}}
	c.passiveCount++
	c.attach(in, w, 0)
	c.nodes[out].driven = true
	return out
}

// SRLatch builds a set-reset latch from two cross-coupled NOR gates, the TL
// latch construction of Sec III ([10]). Q idles low. Set/Reset are
// active-high; simultaneous assertion is resolved in favour of Reset, which
// matches the NOR implementation.
type SRLatch struct {
	Q, QBar Node
}

// NewSRLatch wires the two cross-coupled NORs and returns the latch.
func (c *Circuit) NewSRLatch(set, reset Node, name string) *SRLatch {
	// Break the combinational loop with explicit state: a behavioural
	// component that costs 2 gates and 2 gate delays, exactly like the
	// cross-coupled pair, but without relying on event-loop relaxation.
	q := c.NewNode(name + ".Q")
	qb := c.NewNode(name + ".QB")
	l := &srLatch{
		qDrv:  outputDriver{c: c, out: q, delay: c.gateDelayFor()},
		qbDrv: outputDriver{c: c, out: qb, delay: c.gateDelayFor()},
	}
	c.gateCount += 2 // two cross-coupled NORs
	c.attach(set, l, 0)
	c.attach(reset, l, 1)
	l.in[0] = c.nodes[set].level
	l.in[1] = c.nodes[reset].level
	if l.in[0] && !l.in[1] {
		l.q = true
	}
	c.nodes[q].level = l.q
	c.nodes[qb].level = !l.q
	c.nodes[q].driven = true
	c.nodes[qb].driven = true
	return &SRLatch{Q: q, QBar: qb}
}

type srLatch struct {
	in    [2]bool
	q     bool
	qDrv  outputDriver
	qbDrv outputDriver
}

func (l *srLatch) inputChanged(c *Circuit, port int, level bool) {
	l.in[port] = level
	next := l.q
	switch {
	case l.in[1]: // reset dominates (NOR pair behaviour)
		next = false
	case l.in[0]:
		next = true
	}
	if next == l.q {
		return
	}
	l.q = next
	l.qDrv.drive(next)
	l.qbDrv.drive(!next)
}

// Arbiter2 is the 2x2 asynchronous arbiter of Sec IV-C ([47]): a latch and
// two threshold NOT gates. At most one grant is high at any time. A request
// that arrives while the resource is already held is *not* queued: it stays
// ungranted until it is dropped and re-asserted. This availability-check
// semantics (rather than queueing) is what makes the switch bufferless — a
// losing packet streams past ungranted and is gone; granting its remainder
// later would emit a truncated fragment. Ties at identical timestamps
// resolve to port 0, standing in for the metastability filter.
type Arbiter2 struct {
	Grant0, Grant1 Node
}

type arbiter2 struct {
	req    [2]bool
	stale  [2]bool // asserted while busy: this assertion never wins
	owner  int     // -1 none, 0 or 1
	g0, g1 outputDriver
}

// NewArbiter2 builds the arbiter. It accounts for 4 TL gates (2-NOR latch +
// 2 threshold NOTs).
func (c *Circuit) NewArbiter2(req0, req1 Node, name string) *Arbiter2 {
	g0 := c.NewNode(name + ".G0")
	g1 := c.NewNode(name + ".G1")
	a := &arbiter2{
		owner: -1,
		g0:    outputDriver{c: c, out: g0, delay: c.gateDelayFor() * 2},
		g1:    outputDriver{c: c, out: g1, delay: c.gateDelayFor() * 2},
	}
	c.gateCount += 4
	c.attach(req0, a, 0)
	c.attach(req1, a, 1)
	a.req[0] = c.nodes[req0].level
	a.req[1] = c.nodes[req1].level
	c.nodes[g0].driven = true
	c.nodes[g1].driven = true
	return &Arbiter2{Grant0: g0, Grant1: g1}
}

func (a *arbiter2) inputChanged(c *Circuit, port int, level bool) {
	a.req[port] = level
	if !level {
		a.stale[port] = false // de-assertion clears the stale mark
	} else if a.owner != -1 && a.owner != port {
		a.stale[port] = true // arrived while busy: lost, permanently
	}
	switch {
	case a.owner == -1:
		if a.req[0] && !a.stale[0] {
			a.owner = 0
			a.g0.drive(true)
		} else if a.req[1] && !a.stale[1] {
			a.owner = 1
			a.g1.drive(true)
		}
	case a.owner == 0 && !a.req[0]:
		a.g0.drive(false)
		a.owner = -1
		if a.req[1] && !a.stale[1] {
			a.owner = 1
			a.g1.drive(true)
		}
	case a.owner == 1 && !a.req[1]:
		a.g1.drive(false)
		a.owner = -1
		if a.req[0] && !a.stale[0] {
			a.owner = 0
			a.g0.drive(true)
		}
	}
}

// PlaySignal schedules sig's transitions onto node n.
func (c *Circuit) PlaySignal(n Node, sig *optsig.Signal) {
	c.nodes[n].driven = true
	for _, e := range sig.Edges() {
		c.scheduleLevel(sim.Time(e.T), n, e.Level)
	}
}

// Run advances the simulation until the event queue drains or until the
// given horizon, whichever comes first.
func (c *Circuit) Run(until Fs) {
	c.eng.RunUntil(sim.Time(until))
}

// Now returns the current simulation time in femtoseconds.
func (c *Circuit) Now() Fs { return Fs(c.eng.Now()) }
