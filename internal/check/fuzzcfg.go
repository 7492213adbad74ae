package check

import (
	"fmt"
	"strings"

	"baldur/internal/sim"
)

// Nets lists the networks the differential fuzz harness can build.
var Nets = []string{"baldur", "multibutterfly", "dragonfly", "fattree"}

// FuzzConfig is one randomized simulation configuration: small enough that a
// full serial-vs-sharded, audit-on-vs-off differential completes in
// milliseconds, expressive enough to reach the protocol corners (tiny RTOs,
// BEB ablations, faults, odd shard counts). All fields are integers so byte
// decoding, canonicalization and shrinking are exact.
//
// Only the fields relevant to Net survive Canon; the rest are zeroed, which
// keeps shrunk repros minimal and makes configs comparable.
type FuzzConfig struct {
	// Net names the network: one of Nets.
	Net string
	// NodesExp sets the node count to 1<<NodesExp (baldur, the electrical
	// multi-butterfly and the ideal network).
	NodesExp int
	// DragonflyP and FatTreeK size the dragonfly (p) and the fat-tree (k
	// ports per switch); 0 selects the model default. Canon pins them to the
	// smallest shapes.
	DragonflyP int
	FatTreeK   int
	// Multiplicity is the path multiplicity (baldur 1..3, mb 2..4).
	Multiplicity int
	// LoadPct is the offered load in percent of line rate.
	LoadPct int
	// PacketsPerNode bounds the open-loop injection per source.
	PacketsPerNode int
	// Shards is the parallel side of the differential (the serial side is
	// always 1).
	Shards int
	// RTONs is baldur's retransmission timeout in nanoseconds (0: model
	// default). Values below the round trip force timeout-before-ACK
	// retransmissions — the protocol's hairiest path.
	RTONs int
	// BEBSlotNs is the backoff slot in nanoseconds (0: model default).
	BEBSlotNs int
	// MaxBackoffExp caps the backoff exponent (0: model default).
	MaxBackoffExp int
	// DisableBEB / DisableRetransmit are the protocol ablations.
	DisableBEB        bool
	DisableRetransmit bool
	// MaxAttempts caps baldur's per-packet transmission attempts (0: model
	// default, unlimited). Fault campaigns set it so runs facing dead
	// switches or severed links drain; the byte decoder leaves it zero so
	// existing fuzz corpus inputs decode unchanged.
	MaxAttempts int
	// FaultStage/FaultSwitch inject a faulty switch (baldur; -1: none).
	FaultStage  int
	FaultSwitch int
	// Seed drives topology randomization, backoff draws and the workload.
	Seed uint64
}

// Bounds for Canon. Configs stay tiny on purpose: a differential is four
// full runs, and the fuzzer's throughput is what finds bugs.
const (
	minNodesExp = 2 // 4 nodes
	maxNodesExp = 4 // 16 nodes
	maxPackets  = 12
	maxShards   = 6
)

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Canon returns the canonical form of c: every field clamped into its valid
// range and every field irrelevant to c.Net zeroed. Canon is idempotent;
// the harness and the shrinker only ever operate on canonical configs.
func (c FuzzConfig) Canon() FuzzConfig {
	known := false
	for _, n := range Nets {
		if c.Net == n {
			known = true
			break
		}
	}
	if !known {
		c.Net = "baldur"
	}
	c.LoadPct = clampInt(c.LoadPct-c.LoadPct%5, 5, 95)
	c.PacketsPerNode = clampInt(c.PacketsPerNode, 1, maxPackets)
	c.Shards = clampInt(c.Shards, 2, maxShards)
	if c.Seed == 0 {
		c.Seed = 1
	}

	c.DragonflyP, c.FatTreeK = 0, 0
	switch c.Net {
	case "baldur":
		c.NodesExp = clampInt(c.NodesExp, minNodesExp, maxNodesExp)
		c.Multiplicity = clampInt(c.Multiplicity, 1, 3)
		if c.DisableRetransmit {
			// The reliability knobs are dead weight without the protocol.
			c.RTONs, c.BEBSlotNs, c.MaxBackoffExp, c.MaxAttempts = 0, 0, 0, 0
			c.DisableBEB = false
		} else {
			c.MaxAttempts = clampInt(c.MaxAttempts, 0, 64)
			if c.RTONs != 0 {
				c.RTONs = clampInt(c.RTONs, 300, 5000)
			}
			if c.BEBSlotNs != 0 {
				c.BEBSlotNs = clampInt(c.BEBSlotNs, 50, 400)
			}
			c.MaxBackoffExp = clampInt(c.MaxBackoffExp, 0, 10)
			if c.DisableBEB {
				c.BEBSlotNs, c.MaxBackoffExp = 0, 0
			}
		}
		if c.FaultStage < 0 {
			c.FaultStage, c.FaultSwitch = -1, 0
		} else {
			// stages = NodesExp, switches per stage = nodes/2.
			c.FaultStage = clampInt(c.FaultStage, 0, c.NodesExp-1)
			c.FaultSwitch = clampInt(c.FaultSwitch, 0, 1<<(c.NodesExp-1)-1)
		}
	case "multibutterfly":
		c.NodesExp = clampInt(c.NodesExp, minNodesExp, maxNodesExp)
		c.Multiplicity = clampInt(c.Multiplicity, 2, 4)
		c.zeroBaldurOnly()
	case "dragonfly":
		// Fixed smallest shape (p=2: 72 nodes); heavier per packet, so
		// keep the injection shorter.
		c.NodesExp, c.Multiplicity, c.DragonflyP = 0, 0, 2
		c.PacketsPerNode = clampInt(c.PacketsPerNode, 1, 6)
		c.zeroBaldurOnly()
	case "fattree":
		// Fixed smallest shape (k=4: 16 hosts).
		c.NodesExp, c.Multiplicity, c.FatTreeK = 0, 0, 4
		c.zeroBaldurOnly()
	}
	return c
}

func (c *FuzzConfig) zeroBaldurOnly() {
	c.RTONs, c.BEBSlotNs, c.MaxBackoffExp, c.MaxAttempts = 0, 0, 0, 0
	c.DisableBEB, c.DisableRetransmit = false, false
	c.FaultStage, c.FaultSwitch = -1, 0
}

// FromBytes decodes a canonical config for net from fuzz input bytes.
// Missing bytes read as zero, so every input — including the empty one —
// decodes to a valid config, and equal inputs decode identically.
func FromBytes(net string, data []byte) FuzzConfig {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := data[at]
		at++
		return int(b)
	}
	c := FuzzConfig{Net: net}
	c.NodesExp = minNodesExp + next()%(maxNodesExp-minNodesExp+1)
	c.Multiplicity = 1 + next()%4
	c.LoadPct = 5 + 5*(next()%19) // 5..95 in 5% steps
	c.PacketsPerNode = 1 + next()%maxPackets
	c.Shards = 2 + next()%(maxShards-1)
	c.RTONs = next()<<8 | next() // 0..65535, clamped by Canon when non-zero
	c.BEBSlotNs = next() * 2
	c.MaxBackoffExp = next() % 11
	flags := next()
	c.DisableBEB = flags&1 != 0
	c.DisableRetransmit = flags&2 != 0
	if flags&4 != 0 {
		c.FaultStage = next() % maxNodesExp
		c.FaultSwitch = next()
	} else {
		c.FaultStage = -1
	}
	c.Seed = uint64(next())<<8 | uint64(next()) | 1
	return c.Canon()
}

// Random draws a canonical config for net ("" picks a network too) from rng.
// cmd/simfuzz uses this for its seeded sweep.
func Random(rng *sim.RNG, net string) FuzzConfig {
	if net == "" {
		net = Nets[rng.Intn(len(Nets))]
	}
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	return FromBytes(net, buf)
}

// GoLiteral renders c as a ready-to-paste Go composite literal, the form a
// shrunk repro is reported in.
func (c FuzzConfig) GoLiteral() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check.FuzzConfig{Net: %q", c.Net)
	f := func(name string, v int) {
		if v != 0 {
			fmt.Fprintf(&b, ", %s: %d", name, v)
		}
	}
	f("NodesExp", c.NodesExp)
	f("DragonflyP", c.DragonflyP)
	f("FatTreeK", c.FatTreeK)
	f("Multiplicity", c.Multiplicity)
	f("LoadPct", c.LoadPct)
	f("PacketsPerNode", c.PacketsPerNode)
	f("Shards", c.Shards)
	f("RTONs", c.RTONs)
	f("BEBSlotNs", c.BEBSlotNs)
	f("MaxBackoffExp", c.MaxBackoffExp)
	f("MaxAttempts", c.MaxAttempts)
	if c.DisableBEB {
		b.WriteString(", DisableBEB: true")
	}
	if c.DisableRetransmit {
		b.WriteString(", DisableRetransmit: true")
	}
	if c.FaultStage >= 0 {
		fmt.Fprintf(&b, ", FaultStage: %d, FaultSwitch: %d", c.FaultStage, c.FaultSwitch)
	} else {
		b.WriteString(", FaultStage: -1")
	}
	fmt.Fprintf(&b, ", Seed: %d}", c.Seed)
	return b.String()
}

// candidates returns simplified variants of c, most aggressive first. Every
// candidate is canonical and differs from c.
func (c FuzzConfig) candidates() []FuzzConfig {
	var out []FuzzConfig
	add := func(cand FuzzConfig) {
		cand = cand.Canon()
		if cand != c {
			out = append(out, cand)
		}
	}
	mut := func(fn func(*FuzzConfig)) {
		cand := c
		fn(&cand)
		add(cand)
	}
	mut(func(x *FuzzConfig) { x.NodesExp = minNodesExp })
	mut(func(x *FuzzConfig) { x.NodesExp-- })
	mut(func(x *FuzzConfig) { x.PacketsPerNode = 1 })
	mut(func(x *FuzzConfig) { x.PacketsPerNode /= 2 })
	mut(func(x *FuzzConfig) { x.Shards = 2 })
	mut(func(x *FuzzConfig) { x.Multiplicity = 1 })
	// Mutations must be strictly decreasing in some field, or the greedy
	// loop can oscillate between two failing configs until the budget runs
	// out (observed with an unconditional LoadPct = 50 reset).
	if c.LoadPct > 50 {
		mut(func(x *FuzzConfig) { x.LoadPct = 50 })
	}
	mut(func(x *FuzzConfig) { x.LoadPct /= 2 })
	mut(func(x *FuzzConfig) { x.FaultStage = -1 })
	mut(func(x *FuzzConfig) { x.RTONs = 0 })
	mut(func(x *FuzzConfig) { x.BEBSlotNs = 0 })
	mut(func(x *FuzzConfig) { x.MaxBackoffExp = 0 })
	mut(func(x *FuzzConfig) { x.MaxAttempts = 0 })
	mut(func(x *FuzzConfig) { x.DisableBEB = false })
	mut(func(x *FuzzConfig) { x.DisableRetransmit = false })
	mut(func(x *FuzzConfig) { x.Seed = 1 })
	return out
}

// Shrink greedily minimizes a failing config: it repeatedly applies the
// first simplification candidate for which fails still returns true, until
// none does or budget predicate evaluations are spent. It returns the
// minimized config and the number of evaluations used. fails must be
// deterministic (the harness's differentials are).
func Shrink(cfg FuzzConfig, fails func(FuzzConfig) bool, budget int) (FuzzConfig, int) {
	cfg = cfg.Canon()
	calls := 0
	for improved := true; improved; {
		improved = false
		for _, cand := range cfg.candidates() {
			if calls >= budget {
				return cfg, calls
			}
			calls++
			if fails(cand) {
				cfg = cand
				improved = true
				break
			}
		}
	}
	return cfg, calls
}
