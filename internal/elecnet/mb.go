package elecnet

import (
	"fmt"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/topo"
)

// MultiButterfly is the electrical multi-butterfly baseline: the identical
// randomized topology Baldur uses (radix 2, multiplicity m), but built from
// buffered electrical routers with 90 ns per-hop latency, SerDes and O-E/E-O
// at every hop (the power model charges those; here they appear as latency).
// It is lossless: packets queue instead of dropping.
type MultiButterfly struct {
	*engine
	mb *topo.MultiButterfly
}

const (
	// mbVCs is Table VI's three VCs. Every link runs from stage s to
	// stage s+1, so the channel-dependency graph is acyclic and the
	// network is deadlock-free at any VC count; the third buffered hop
	// and every later one share VC 2.
	mbVCs = 3
	// MBStageDelay is the switch-to-switch link delay (backplane scale).
	// Hosts attach over netsim.HostLinkDelay.
	MBStageDelay = 10 * sim.Nanosecond
)

// MBConfig configures the electrical multi-butterfly.
type MBConfig struct {
	Nodes        int // power of two >= 4 (default 1024)
	Multiplicity int // default 4 (like Baldur's 1K configuration)
	// Shards selects the conservative-parallel shard count (0 or 1:
	// serial). The network partitions by switch column — node i, its
	// injection switch and its ejection switches all share column i>>1 —
	// so only inter-stage links cross shards and the lookahead is
	// MBStageDelay. Statistics are bit-identical for any value.
	Shards int
	Seed   uint64
}

// NewMultiButterfly builds the electrical multi-butterfly network.
func NewMultiButterfly(cfg MBConfig) (*MultiButterfly, error) {
	cfg = cfg.withDefaults()
	wiring, err := topo.NewMultiButterfly(cfg.Nodes, cfg.Multiplicity, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("elecnet: %w", err)
	}
	net := &MultiButterfly{
		engine: newEngine("multibutterfly", mbVCs),
		mb:     wiring,
	}
	net.seed = cfg.Seed
	m := cfg.Multiplicity
	sw := wiring.SwitchesPerStage()
	stages := wiring.Stages

	// Router (s,k) has id s*sw+k; 2m outputs, 2m inputs.
	net.initRouters(stages*sw, 2*m, 2*m)
	net.initNICs(cfg.Nodes)

	// Inter-stage wiring follows the randomized matchings.
	for s := 0; s < stages-1; s++ {
		for k := int32(0); k < int32(sw); k++ {
			for d := 0; d < 2; d++ {
				for p := 0; p < m; p++ {
					ref := wiring.OutWire(s, k, d, p)
					net.connect(
						int32(s*sw)+k, d*m+p,
						int32((s+1)*sw)+ref.Switch, int(ref.Port),
						MBStageDelay,
					)
				}
			}
		}
	}
	// Last stage ejects: the m wires of direction d all reach node
	// (k<<1)|d; modelling note: a buffered switch can use any of them, so
	// all m become ejection ports to the same node.
	last := stages - 1
	for k := int32(0); k < int32(sw); k++ {
		for d := 0; d < 2; d++ {
			node := k<<1 | int32(d)
			for p := 0; p < m; p++ {
				net.connectEject(int32(last*sw)+k, d*m+p, node, netsim.HostLinkDelay)
			}
		}
	}
	// NIC attachment mirrors Baldur: node i feeds input (i&1) of
	// first-stage switch i>>1.
	for i := 0; i < cfg.Nodes; i++ {
		swi, port := wiring.InjectionSwitch(i)
		net.connectNIC(int32(i), swi, int(port), netsim.HostLinkDelay)
	}

	net.route = func(n *engine, r *router, st *pktState) int {
		s := int(r.id) / sw
		k := r.id % int32(sw)
		d := wiring.RoutingBit(st.pkt.Dst, s)
		if s == last {
			// Any ejection port of the direction; prefer the one
			// that frees first.
			best := d * m
			for p := 1; p < m; p++ {
				if r.out[d*m+p].busyUntil < r.out[best].busyUntil {
					best = d*m + p
				}
			}
			return best
		}
		_ = k
		// Adaptive path selection: among the m equivalent ports pick
		// the one with the most credits at our VC, breaking ties by
		// shorter queue.
		vc := st.vc(n.vcs)
		best := d * m
		for p := 1; p < m; p++ {
			cand := d*m + p
			cb, bb := &r.out[cand], &r.out[best]
			cc, bc := n.credits[int(cb.cred)+vc], n.credits[int(bb.cred)+vc]
			if cc > bc || (cc == bc && cb.queueLen() < bb.queueLen()) {
				best = cand
			}
		}
		return best
	}
	// Column k holds switch (s,k) of every stage plus nodes 2k and 2k+1:
	// the randomized inter-stage matchings are the only links that cross.
	net.partition(cfg.Shards, sw,
		func(i int) int { return i % sw },
		func(node int) int { return node >> 1 })
	return net, nil
}

// Stages returns the stage count.
func (n *MultiButterfly) Stages() int { return n.mb.Stages }
