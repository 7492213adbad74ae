package elecnet

import (
	"fmt"

	"baldur/internal/sim"
)

// Dragonfly is the dragonfly baseline in the paper's recommended maximal
// configuration ([16]): a = 2p = 2h routers per group, g = a*h + 1 groups
// (one global link between every pair of groups), all-to-all local links,
// and UGAL-style adaptive routing that escalates to Valiant (random
// intermediate group) when the minimal path looks congested.
//
// The paper's 1K-scale instance is p=4: 33 groups x 8 routers x 4 hosts =
// 1,056 nodes on radix-15 routers (p+h+a-1), matching its "radix 16" data
// point.
type Dragonfly struct {
	*engine
	p, a, h, g int
	routing    string
	// rngs holds one UGAL/Valiant randomness stream per router, stored
	// inline in one slab: the draw happens on the source router's shard,
	// and per-router streams keep the sequence of draws invariant to the
	// shard count.
	rngs []sim.RNG
}

const (
	// dragonflyVCs covers the longest route. A Valiant route
	// (l-g-l-g-l) visits six routers: the NIC-to-router edge hop and the
	// five router-to-router hops hold VCs 0..5, and the ejection queue at
	// the sixth router uses VC 6. Every hop climbs a VC, so the route is
	// deadlock-free.
	dragonflyVCs = 7
	// Link delays: host-to-router, local (intra-group) and global.
	dragonflyHostLink   = 10 * sim.Nanosecond
	dragonflyLocalLink  = 10 * sim.Nanosecond
	dragonflyGlobalLink = 100 * sim.Nanosecond
	// ugalBias biases UGAL's minimal-vs-Valiant comparison toward
	// minimal routing, in queue-length units.
	ugalBias = 1
)

// DragonflyConfig configures the dragonfly.
type DragonflyConfig struct {
	// P is the hosts-per-router parameter; a = 2p, h = p, g = a*h+1.
	// Default 4 (the paper's 1K-scale configuration, 1,056 nodes).
	P int
	// Routing selects the policy: "ugal" (default, the paper's adaptive
	// routing) or "minimal" (always shortest path, the ablation).
	Routing string
	// Shards selects the conservative-parallel shard count (0 or 1:
	// serial). The network partitions by group — hosts and local links
	// stay shard-internal — so only global links cross shards and the
	// lookahead is the global link delay. Statistics are bit-identical for
	// any value.
	Shards int
	Seed   uint64
}

// DragonflyNodes returns the node count of the maximal configuration for a
// given p: 2p * p * (2p*p+1) ... precisely a*p*g with a=2p, h=p, g=a*h+1.
func DragonflyNodes(p int) int {
	a, h := 2*p, p
	g := a*h + 1
	return a * p * g
}

func (cfg DragonflyConfig) withDefaults() (DragonflyConfig, error) {
	if cfg.P == 0 {
		cfg.P = 4
	}
	if cfg.P < 1 {
		return cfg, fmt.Errorf("elecnet: dragonfly p = %d", cfg.P)
	}
	if cfg.Routing == "" {
		cfg.Routing = "ugal"
	}
	switch cfg.Routing {
	case "ugal", "minimal":
	default:
		return cfg, fmt.Errorf("elecnet: unknown dragonfly routing %q", cfg.Routing)
	}
	return cfg, nil
}

// NewDragonfly builds the dragonfly network.
func NewDragonfly(cfg DragonflyConfig) (*Dragonfly, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := cfg.P
	a, h := 2*p, p
	g := a*h + 1
	nodes := a * p * g

	net := &Dragonfly{
		engine: newEngine("dragonfly", dragonflyVCs),
		p:      p, a: a, h: h, g: g,
		routing: cfg.Routing,
	}
	net.seed = cfg.Seed
	base := sim.NewRNG(cfg.Seed ^ 0xd4a90)
	net.rngs = make([]sim.RNG, g*a)
	for i := range net.rngs {
		net.rngs[i] = *base.Fork(uint64(i) + 1)
	}

	// Router (G,A) id = G*a + A. Ports: [0,p) hosts, [p, p+a-1) local,
	// [p+a-1, p+a-1+h) global.
	radix := p + (a - 1) + h
	net.initRouters(g*a, radix, radix)
	net.initNICs(nodes)

	rid := func(G, A int) int32 { return int32(G*a + A) }
	localPort := func(A, B int) int { // port on A towards B, B != A
		if B < A {
			return p + B
		}
		return p + B - 1
	}
	globalPort := func(gl int) int { return p + a - 1 + gl }

	// Hosts.
	for G := 0; G < g; G++ {
		for A := 0; A < a; A++ {
			for hp := 0; hp < p; hp++ {
				node := int32((G*a+A)*p + hp)
				net.connectNIC(node, rid(G, A), hp, dragonflyHostLink)
				net.connectEject(rid(G, A), hp, node, dragonflyHostLink)
			}
		}
	}
	// Local all-to-all within each group.
	for G := 0; G < g; G++ {
		for A := 0; A < a; A++ {
			for B := 0; B < a; B++ {
				if B == A {
					continue
				}
				net.connect(rid(G, A), localPort(A, B), rid(G, B), localPort(B, A), dragonflyLocalLink)
			}
		}
	}
	// Global links: channel c of group G connects to group D = (G+c+1)%g,
	// which sees it as channel c' = g-2-c.
	for G := 0; G < g; G++ {
		for c := 0; c < a*h; c++ {
			D := (G + c + 1) % g
			cPrime := g - 2 - c
			net.connect(
				rid(G, c/h), globalPort(c%h),
				rid(D, cPrime/h), globalPort(cPrime%h),
				dragonflyGlobalLink,
			)
		}
	}

	net.route = net.routeDragonfly
	// One group per partition unit: hosts and the local all-to-all stay
	// shard-internal; only the global links cross.
	net.partition(cfg.Shards, g,
		func(i int) int { return i / a },
		func(node int) int { return node / (a * p) })
	return net, nil
}

// groupOf returns the group of a router id.
func (d *Dragonfly) groupOf(r int32) int { return int(r) / d.a }

// hostRouter returns the router id and host port of a node.
func (d *Dragonfly) hostRouter(node int) (int32, int) {
	return int32(node / d.p), node % d.p
}

// exitChannel returns the channel index group G uses to reach group D.
func (d *Dragonfly) exitChannel(G, D int) int {
	return (D - G - 1 + d.g) % d.g
}

// routeDragonfly implements minimal routing with a UGAL-style adaptive
// choice of a Valiant (random intermediate group) path at the source router.
func (d *Dragonfly) routeDragonfly(n *engine, r *router, st *pktState) int {
	p, a, h := d.p, d.a, d.h
	dstRouter, dstPort := d.hostRouter(st.pkt.Dst)
	if r.id == dstRouter {
		return dstPort // eject
	}
	G := d.groupOf(r.id)
	A := int(r.id) % a
	dstGroup := d.groupOf(dstRouter)

	localPort := func(B int) int {
		if B < A {
			return p + B
		}
		return p + B - 1
	}
	globalPort := func(gl int) int { return p + a - 1 + gl }

	// Valiant bookkeeping: reaching the intermediate group switches the
	// target back to the real destination.
	if st.interGroup >= 0 && !st.interReached && G == int(st.interGroup) {
		st.interReached = true
	}

	// Routing decision, made once, at the packet's source router.
	if st.hop == 1 && st.interGroup < 0 && G != dstGroup && d.routing != "minimal" {
		minPort := d.firstHopPort(r, dstGroup)
		K := d.rngs[r.id].Intn(d.g)
		if K != G && K != dstGroup {
			// UGAL: compare estimated queueing costs.
			valPort := d.firstHopPort(r, K)
			qMin := r.out[minPort].queueLen()
			qVal := r.out[valPort].queueLen()
			// Minimal ~2 hops to target group, Valiant ~4.
			if qMin*2 > qVal*4+ugalBias {
				st.interGroup = int32(K)
				return valPort
			}
		}
		return minPort
	}

	target := dstGroup
	if st.interGroup >= 0 && !st.interReached {
		target = int(st.interGroup)
	}
	if G == target {
		if target == dstGroup {
			// Local hop to the destination router.
			return localPort(int(dstRouter) % a)
		}
		// Inside the intermediate group but flagged unreached cannot
		// happen (handled above); fall through to head to dstGroup.
	}
	if G != target {
		c := d.exitChannel(G, target)
		owner := c / h
		if owner == A {
			return globalPort(c % h)
		}
		return localPort(owner)
	}
	// G == target == dstGroup handled above; defensive default.
	return localPort(int(dstRouter) % a)
}

// firstHopPort returns the port of the first hop of the minimal route from
// router r toward group D (r's group assumed != D).
func (d *Dragonfly) firstHopPort(r *router, D int) int {
	p, a, h := d.p, d.a, d.h
	G := d.groupOf(r.id)
	A := int(r.id) % a
	c := d.exitChannel(G, D)
	owner := c / h
	if owner == A {
		return p + a - 1 + c%h
	}
	if owner < A {
		return p + owner
	}
	return p + owner - 1
}

// Params returns (p, a, h, g).
func (d *Dragonfly) Params() (int, int, int, int) { return d.p, d.a, d.h, d.g }

// Radix returns the router radix (p + a-1 + h).
func (d *Dragonfly) Radix() int { return d.p + d.a - 1 + d.h }
