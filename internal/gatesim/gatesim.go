// Package gatesim is an event-driven simulator for all-optical logic built
// from transistor-laser (TL) gates, waveguides, splitters and combiners. It
// plays the role HSPICE plays in the paper (Sec IV-D): validating the 2x2
// switch design at circuit level, including timing margins under jitter and
// process variation.
//
// Signals are binary light levels; active TL gates impose the Table IV
// propagation delay (plus optional per-gate variation and per-transition
// jitter), while splitters and combiners are passive. Time is integer
// femtoseconds, matching internal/optsig.
package gatesim

import (
	"baldur/internal/optsig"
	"baldur/internal/sim"
)

// Fs is a femtosecond timestamp (alias of optsig.Fs).
type Fs = optsig.Fs

// GateDelayFs is the nominal TL gate propagation delay (Table IV: 1.93 ps).
const GateDelayFs Fs = 1930

// Config controls gate timing behaviour.
type Config struct {
	// GateDelay is the nominal active-gate delay. Zero means GateDelayFs.
	GateDelay Fs
	// DelayVariation is the fractional per-gate static variation (e.g.
	// 0.10 for the +-10% of Sec IV-F). Each gate draws one offset at
	// build time.
	DelayVariation float64
	// WaveguideVariation is the absolute static variation of each
	// waveguide delay element (Sec IV-F uses 1 ps = 1000 fs).
	WaveguideVariation Fs
	// JitterSigma is the standard deviation, in femtoseconds, of the
	// Gaussian jitter added independently to every transition.
	JitterSigma float64
	// Seed seeds the variation/jitter RNG.
	Seed uint64
}

// Circuit is a netlist under simulation.
type Circuit struct {
	cfg     Config
	eng     *sim.Engine
	rng     *sim.RNG
	nodes   []*node
	lvlFree *levelEvent

	gateCount    int // active TL gates
	passiveCount int // splitters, combiners, waveguide delays
}

// levelEvent is one pending output transition: drive out to level. Gate
// simulations schedule one per transition, so they are recycled through the
// circuit's free list.
type levelEvent struct {
	c     *Circuit
	out   Node
	level bool
	next  *levelEvent
}

func (ev *levelEvent) Run(*sim.Engine) {
	c, out, level := ev.c, ev.out, ev.level
	ev.next = c.lvlFree
	c.lvlFree = ev
	c.setLevel(out, level)
}

// scheduleLevel enqueues a pooled transition event at absolute time t.
func (c *Circuit) scheduleLevel(t sim.Time, out Node, level bool) {
	ev := c.lvlFree
	if ev != nil {
		c.lvlFree = ev.next
	} else {
		ev = &levelEvent{c: c}
	}
	ev.out, ev.level = out, level
	c.eng.Schedule(t, ev)
}

// Node identifies a wire in the circuit.
type Node int

type node struct {
	level  bool
	sinks  []sinkRef
	probe  *optsig.Signal
	name   string
	driven bool // has at least one driver (source or component output)
}

type sinkRef struct {
	comp component
	port int
}

type component interface {
	// inputChanged is invoked when input port's level changes.
	inputChanged(c *Circuit, port int, level bool)
}

// New returns an empty circuit with the given configuration.
func New(cfg Config) *Circuit {
	if cfg.GateDelay == 0 {
		cfg.GateDelay = GateDelayFs
	}
	return &Circuit{
		cfg: cfg,
		eng: sim.NewEngine(),
		rng: sim.NewRNG(cfg.Seed),
	}
}

// NewNode allocates a wire with a debug name.
func (c *Circuit) NewNode(name string) Node {
	c.nodes = append(c.nodes, &node{name: name})
	return Node(len(c.nodes) - 1)
}

// NodeName returns the debug name of n.
func (c *Circuit) NodeName(n Node) string { return c.nodes[n].name }

// GateCount returns the number of active TL gates instantiated so far.
// Latches count as the 2 cross-coupled NOR gates they are built from.
func (c *Circuit) GateCount() int { return c.gateCount }

// PassiveCount returns the number of passive elements (splitters are free:
// fan-out is implicit; combiners and waveguide delays are counted).
func (c *Circuit) PassiveCount() int { return c.passiveCount }

// Level returns the current level of a node.
func (c *Circuit) Level(n Node) bool { return c.nodes[n].level }

// Probe starts recording a node's waveform; returns the signal, which fills
// in as the simulation runs.
func (c *Circuit) Probe(n Node) *optsig.Signal {
	nd := c.nodes[n]
	if nd.probe == nil {
		nd.probe = &optsig.Signal{}
		if nd.level {
			// Record the pre-existing high level (e.g. an inverting
			// gate idling lit) so the waveform starts correctly.
			nd.probe.Append(Fs(c.eng.Now()), true)
		}
	}
	return nd.probe
}

func (c *Circuit) attach(n Node, comp component, port int) {
	c.nodes[n].sinks = append(c.nodes[n].sinks, sinkRef{comp: comp, port: port})
}

// setLevel drives node n to level at the current time, propagating to sinks.
func (c *Circuit) setLevel(n Node, level bool) {
	nd := c.nodes[n]
	if nd.level == level {
		return
	}
	nd.level = level
	if nd.probe != nil {
		nd.probe.Append(Fs(c.eng.Now()), level)
	}
	for _, s := range nd.sinks {
		s.comp.inputChanged(c, s.port, level)
	}
}

// gateDelayFor draws the per-gate static delay including variation.
func (c *Circuit) gateDelayFor() Fs {
	d := c.cfg.GateDelay
	if c.cfg.DelayVariation > 0 {
		f := 1 + c.cfg.DelayVariation*(2*c.rng.Float64()-1)
		d = Fs(float64(d)*f + 0.5)
	}
	if d < 1 {
		d = 1
	}
	return d
}

// scheduleOutput schedules an output transition after delay, adding
// per-transition jitter while preserving causal ordering per target node.
type outputDriver struct {
	c      *Circuit
	out    Node
	delay  Fs
	lastAt Fs
}

func (d *outputDriver) drive(level bool) {
	t := Fs(d.c.eng.Now()) + d.delay
	if d.c.cfg.JitterSigma > 0 {
		t += Fs(d.c.rng.Normal(0, d.c.cfg.JitterSigma))
	}
	if t <= d.lastAt {
		t = d.lastAt + 1 // preserve transition order through this gate
	}
	if now := Fs(d.c.eng.Now()); t <= now {
		t = now + 1
	}
	d.lastAt = t
	d.c.scheduleLevel(sim.Time(t), d.out, level)
}
