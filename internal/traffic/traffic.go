// Package traffic implements the synthetic workloads of the paper's
// evaluation (Sec V-A): random_permutation, transpose, bisection,
// group_permutation, hotspot, ping_pong1 and ping_pong2, plus the open-loop
// injection process (exponential inter-arrival controlled by input load,
// Eq. 1) and the closed-loop ping-pong driver.
package traffic

import (
	"fmt"

	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// Pattern maps each source node to its (fixed) destination. A destination
// of -1 means the node does not transmit.
type Pattern struct {
	Name string
	Dest []int
}

// Nodes returns the node count of the pattern.
func (p *Pattern) Nodes() int { return len(p.Dest) }

// Validate checks that all destinations are in range and no node sends to
// itself.
func (p *Pattern) Validate() error {
	for src, dst := range p.Dest {
		if dst == -1 {
			continue
		}
		if dst < 0 || dst >= len(p.Dest) {
			return fmt.Errorf("traffic: %s: node %d sends to %d, out of range", p.Name, src, dst)
		}
		if dst == src {
			return fmt.Errorf("traffic: %s: node %d sends to itself", p.Name, src)
		}
	}
	return nil
}

// RandomPermutation pairs nodes for transmission using a uniformly random
// fixed-point-free permutation.
func RandomPermutation(nodes int, seed uint64) *Pattern {
	rng := sim.NewRNG(seed)
	perm := make([]int, nodes)
	rng.Perm(perm)
	// Remove fixed points by swapping with a neighbour.
	for i := 0; i < nodes; i++ {
		if perm[i] == i {
			j := (i + 1) % nodes
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return &Pattern{Name: "random_permutation", Dest: perm}
}

// Transpose sends from address a(n-1)..a0 to the address with the top and
// bottom halves of the bits swapped. Nodes on the diagonal (dst == src) do
// not transmit. For node counts that are not powers of two (e.g. the
// 1,056-node dragonfly), the pattern covers the largest 2^n subcube and the
// remaining nodes stay idle, keeping all destinations valid.
func Transpose(nodes int) *Pattern {
	n := 0
	for 1<<(n+1) <= nodes {
		n++
	}
	cube := 1 << n
	h := n / 2
	low := (1 << h) - 1
	dest := make([]int, nodes)
	for a := range dest {
		if a >= cube {
			dest[a] = -1
			continue
		}
		d := (a >> h) | (a&low)<<(n-h)
		if d == a {
			d = -1
		}
		dest[a] = d
	}
	return &Pattern{Name: "transpose", Dest: dest}
}

// Bisection pairs each node of the lower half with a random node of the
// upper half (and vice versa), so every packet crosses the bisection.
func Bisection(nodes int, seed uint64) *Pattern {
	rng := sim.NewRNG(seed)
	half := nodes / 2
	upper := make([]int, half)
	rng.Perm(upper)
	dest := make([]int, nodes)
	for i := 0; i < half; i++ {
		partner := half + upper[i]
		dest[i] = partner
		dest[partner] = i
	}
	return &Pattern{Name: "bisection", Dest: dest}
}

// GroupPermutation reproduces the paper's dragonfly-adversarial pattern:
// nodes are partitioned into groups of groupSize (the dragonfly group), the
// groups are paired by a random permutation, and each node sends to a random
// node in its partner group. The same source/destination pairs are then
// applied to every network.
func GroupPermutation(nodes, groupSize int, seed uint64) *Pattern {
	rng := sim.NewRNG(seed)
	groups := nodes / groupSize
	if groups < 2 {
		groups = 2
		groupSize = nodes / 2
	}
	gperm := make([]int, groups)
	rng.Perm(gperm)
	for g := 0; g < groups; g++ {
		if gperm[g] == g {
			j := (g + 1) % groups
			gperm[g], gperm[j] = gperm[j], gperm[g]
		}
	}
	dest := make([]int, nodes)
	for i := range dest {
		dest[i] = -1
	}
	for g := 0; g < groups; g++ {
		partner := gperm[g]
		for k := 0; k < groupSize; k++ {
			src := g*groupSize + k
			dst := partner*groupSize + rng.Intn(groupSize)
			dest[src] = dst
		}
	}
	return &Pattern{Name: "group_permutation", Dest: dest}
}

// Hotspot sends every node's traffic to one destination node.
func Hotspot(nodes, target int) *Pattern {
	dest := make([]int, nodes)
	for i := range dest {
		if i == target {
			dest[i] = -1
			continue
		}
		dest[i] = target
	}
	return &Pattern{Name: "hotspot", Dest: dest}
}

// PingPongPairs1 randomly pairs all nodes (ping_pong1).
func PingPongPairs1(nodes int, seed uint64) *Pattern {
	rng := sim.NewRNG(seed)
	order := make([]int, nodes)
	rng.Perm(order)
	dest := make([]int, nodes)
	for i := 0; i+1 < nodes; i += 2 {
		a, b := order[i], order[i+1]
		dest[a] = b
		dest[b] = a
	}
	if nodes%2 == 1 {
		dest[order[nodes-1]] = -1
	}
	return &Pattern{Name: "ping_pong1", Dest: dest}
}

// PingPongPairs2 pairs the nodes of one group with the nodes of another
// (ping_pong2): in a dragonfly this forces all traffic across the two
// groups' limited inter-group bandwidth.
func PingPongPairs2(nodes, groupSize int, seed uint64) *Pattern {
	rng := sim.NewRNG(seed)
	dest := make([]int, nodes)
	for i := range dest {
		dest[i] = -1
	}
	if 2*groupSize > nodes {
		groupSize = nodes / 2
	}
	groups := nodes / groupSize
	ga := rng.Intn(groups)
	gb := rng.Intn(groups)
	for gb == ga {
		gb = rng.Intn(groups)
	}
	perm := make([]int, groupSize)
	rng.Perm(perm)
	for k := 0; k < groupSize; k++ {
		a := ga*groupSize + k
		b := gb*groupSize + perm[k]
		dest[a] = b
		dest[b] = a
	}
	return &Pattern{Name: "ping_pong2", Dest: dest}
}

// MeanInterval returns the mean packet inter-arrival time of Eq. 1:
// packet_size / (input_load * link_data_rate).
func MeanInterval(packetSize int, load, linkRate float64) sim.Duration {
	seconds := float64(packetSize) * 8 / (load * linkRate)
	return sim.Duration(seconds*1e12 + 0.5)
}

// OpenLoop injects PacketsPerNode packets from every transmitting node of
// the pattern, with exponential inter-arrival times at the given input load.
type OpenLoop struct {
	Pattern        *Pattern
	Load           float64
	PacketSize     int // 0 = network default (512 B)
	PacketsPerNode int
	LinkRate       float64 // 0 = 25 Gbps
	Seed           uint64
}

// olInjector is one node's typed injection process. It lives on its source
// node's shard (scheduled via Network.ScheduleNode), so open-loop traffic
// drives sharded networks without cross-shard Sends; the per-source RNG
// keeps arrival times independent of every other node.
type olInjector struct {
	net       netsim.Network
	src, dst  int
	size      int
	remaining int
	mean      sim.Duration
	rng       *sim.RNG
}

func (in *olInjector) Run(e *sim.Engine) {
	in.net.Send(in.src, in.dst, in.size)
	in.remaining--
	if in.remaining > 0 {
		in.net.ScheduleNode(in.src, e.Now().Add(in.rng.ExpDuration(in.mean)), in)
	}
}

// Start schedules the injection processes on the network's engine. Call
// before running the engine. Defaults are resolved into locals, never
// written back into o: a spec literal reused across cells (the figure
// sweeps reuse one OpenLoop value per load) must behave identically on
// every run.
func (o *OpenLoop) Start(net netsim.Network) {
	rate := o.LinkRate
	if rate == 0 {
		rate = 25e9
	}
	size := o.PacketSize
	if size == 0 {
		size = 512
	}
	mean := MeanInterval(size, o.Load, rate)
	for src := 0; src < net.NumNodes(); src++ {
		dst := o.Pattern.Dest[src]
		if dst == -1 {
			continue
		}
		in := &olInjector{
			net:       net,
			src:       src,
			dst:       dst,
			size:      size,
			remaining: o.PacketsPerNode,
			mean:      mean,
			rng:       sim.NewRNG(o.Seed).Fork(uint64(src) + 1),
		}
		net.ScheduleNode(src, sim.Time(0).Add(in.rng.ExpDuration(mean)), in)
	}
}

// PingPong runs the closed-loop ping-pong workload: each node of a pair
// sends one packet, waits for its partner's packet, and immediately replies,
// for Rounds rounds. Both directions run concurrently (each node starts with
// one send, as the paper's description implies full-duplex pairs).
type PingPong struct {
	Pattern    *Pattern // pairing (must be symmetric)
	Rounds     int
	PacketSize int
}

// ppStarter fires one node's opening send at t = 0, on that node's shard.
type ppStarter struct {
	net       netsim.Network
	src, dst  int
	size      int
	remaining []int
}

func (s *ppStarter) Run(*sim.Engine) {
	if s.remaining[s.src] > 0 {
		s.remaining[s.src]--
		s.net.Send(s.src, s.dst, s.size)
	}
}

// Start wires the driver to the network. Call before running the engine.
// Both the opening sends and the replies execute on the owning node's
// shard: starters go through Network.ScheduleNode and the delivery callback
// runs where the packet lands, touching only that node's round counter.
func (p *PingPong) Start(net netsim.Network) {
	size := p.PacketSize
	if size == 0 {
		size = 512
	}
	remaining := make([]int, net.NumNodes())
	for src := 0; src < net.NumNodes(); src++ {
		if p.Pattern.Dest[src] != -1 {
			remaining[src] = p.Rounds
		}
	}
	net.OnDeliver(func(pkt *netsim.Packet, _ sim.Time) {
		// The receiver replies immediately if it still owes rounds.
		me := pkt.Dst
		if partner := p.Pattern.Dest[me]; partner == pkt.Src && remaining[me] > 0 {
			remaining[me]--
			net.Send(me, partner, size)
		}
	})
	for src := 0; src < net.NumNodes(); src++ {
		if dst := p.Pattern.Dest[src]; dst != -1 {
			st := &ppStarter{net: net, src: src, dst: dst, size: size, remaining: remaining}
			net.ScheduleNode(src, 0, st)
		}
	}
}
