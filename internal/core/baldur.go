// Package core implements the Baldur network simulator: the paper's primary
// contribution. Baldur is a bufferless, clock-less multi-butterfly of 2x2
// all-optical TL switches with path multiplicity. Packets are switched
// on-the-fly in the optical domain; congestion is handled by dropping the
// losing packet, and the server-node NICs provide reliability through ACKs,
// local-timer retransmission and binary exponential backoff (Sec IV-E).
//
// Model fidelity: the per-stage latency, the number of gates and the
// multiplicity-dependent drop behaviour follow Table V; links and packet
// sizes follow Table VI (100 ns host links, 25 Gbps line rate, 512 B
// packets). Switches never buffer: an output wire of the routed direction is
// either free at head-arrival time — and then carries the packet for its
// full serialization — or the packet is dropped at that stage.
package core

import (
	"fmt"
	"math"

	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/prof"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/tl"
	"baldur/internal/topo"
)

// ackSize is the acknowledgement size in bytes. The data packet size, line
// rate and host link delay are the shared Table VI values in netsim; the
// per-stage switch latency is Table V's value for the multiplicity.
const ackSize = 32

// Config parametrizes a Baldur network. The zero value is completed by
// applyDefaults to the paper's Table VI configuration.
type Config struct {
	// Nodes is the number of server nodes (a power of two >= 4).
	Nodes int
	// Multiplicity is the path multiplicity m; 0 selects the paper's
	// design rule for the node count (tl.RequiredMultiplicity).
	Multiplicity int
	// LinkRate is the line data rate in bit/s (default netsim.LineRate,
	// 25 Gbps; the link-rate ablation raises it).
	LinkRate float64
	// RTO is the retransmission timeout; 0 derives it from the zero-load
	// round trip plus margin.
	RTO sim.Duration
	// BEBSlot is the binary-exponential-backoff slot (default 200 ns,
	// about one zero-load round trip).
	BEBSlot sim.Duration
	// MaxBackoffExp caps the backoff exponent (default 10, as in
	// classical BEB).
	MaxBackoffExp int
	// DisableBEB turns binary exponential backoff off (ablation).
	DisableBEB bool
	// DisableRetransmit turns the whole reliability protocol off: drops
	// become losses. Used for raw drop-rate measurements (Table V).
	DisableRetransmit bool
	// MaxAttempts caps the transmission attempts per data packet (the
	// original send plus retransmissions). When the cap is reached the
	// sender abandons the packet instead of rearming the timer
	// (Stats.GaveUp), so runs with unreachable destinations — dead
	// switches, severed links — still drain. 0 means unlimited, the
	// paper's protocol.
	MaxAttempts int
	// Topology selects the multi-stage wiring: "" or "multibutterfly"
	// (randomized matchings, the paper's design) or "butterfly" (a
	// classic deterministic butterfly: the ablation of the expansion
	// property — without randomization the network is not immune to
	// worst-case permutations, Sec IV-E).
	Topology string
	// Seed drives topology randomization and backoff draws.
	Seed uint64
	// Shards selects the parallel execution width: 0 or 1 runs serially;
	// K >= 2 partitions the model into the optical fabric (one shard) plus
	// K-1 contiguous NIC blocks, executed as a conservative PDES with the
	// host link delay as lookahead. Statistics are bit-identical to the
	// serial run for any K.
	Shards int
}

// applyDefaults fills the zero fields and refuses values the model cannot
// run: every rejected value would otherwise panic mid-run or be ignored.
func (c *Config) applyDefaults() error {
	if c.Nodes < 0 {
		return fmt.Errorf("core: nodes %d < 0", c.Nodes)
	}
	if c.Nodes == 0 {
		c.Nodes = 1024
	}
	if c.Multiplicity == 0 {
		c.Multiplicity = tl.RequiredMultiplicity(c.Nodes)
	}
	if c.Multiplicity < 1 {
		return fmt.Errorf("core: multiplicity %d < 1", c.Multiplicity)
	}
	if c.LinkRate == 0 {
		c.LinkRate = netsim.LineRate
	}
	if !(c.LinkRate > 0) {
		return fmt.Errorf("core: link rate %v, want > 0", c.LinkRate)
	}
	if c.RTO < 0 {
		return fmt.Errorf("core: RTO %v < 0", c.RTO)
	}
	if c.BEBSlot == 0 {
		c.BEBSlot = 200 * sim.Nanosecond
	}
	if c.BEBSlot < 0 {
		return fmt.Errorf("core: BEB slot %v < 0", c.BEBSlot)
	}
	if c.MaxBackoffExp == 0 {
		c.MaxBackoffExp = 10
	}
	if c.MaxBackoffExp < 0 {
		return fmt.Errorf("core: max backoff exponent %d < 0", c.MaxBackoffExp)
	}
	// The widest backoff, 1<<MaxBackoffExp slots, must fit in a Duration
	// (and its window in an int).
	if c.BEBSlot > math.MaxInt64>>c.MaxBackoffExp {
		return fmt.Errorf("core: backoff of 2^%d slots of %v overflows", c.MaxBackoffExp, c.BEBSlot)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("core: max attempts %d < 0", c.MaxAttempts)
	}
	return nil
}

// Stats aggregates the network-wide counters of one run: the packet ledger
// plus Baldur's own diagnostics. Each shard counts into its own ledger and
// diagnostics; Run folds them. The ACK round-trip times are read with
// Network.AckLatency.
type Stats struct {
	netsim.Ledger
	// DropsByStage histograms where contention bites.
	DropsByStage []uint64
	// MaxRetxBufBytes is the high-water mark of any node's unACKed
	// buffer (the paper provisions 1 MB; measures 536 KB at load 0.7).
	MaxRetxBufBytes int
}

// Network is a Baldur network instance. It implements netsim.Network; the
// embedded shard runtime provides the run, ledger and delivery plumbing.
type Network struct {
	netsim.Shards

	cfg Config
	mb  *topo.MultiButterfly
	// nics is one contiguous slab indexed by node id; it is sized once at
	// construction and never reallocated, so &nics[i] pointers stay valid
	// for the life of the network.
	nics []nic

	// shards[0] is the optical fabric (and, when serial, everything);
	// shards[1..] hold NIC blocks. fab/fabAct are shard 0's handles,
	// used by traverse and the receive handoff.
	shards []*coreShard
	fab    *coreShard
	fabAct sim.Actor

	// busy[s*busyStride + k*2m + d*m + path] is the time until which
	// that output wire of switch k at stage s is carrying a packet, in
	// picoseconds past busyBase: one flat array of 32-bit offsets for the
	// whole fabric, not a slice per stage. A wire is free at t iff
	// busyBase + busy[w] <= t. traverse moves busyBase up to its start
	// time once that is 2^31 ps past it (see rebase); New refuses a
	// reservation longer than 2^31 ps, so every offset fits.
	// Touched only by the fabric shard.
	busy       []uint32
	busyBase   sim.Time
	busyStride int
	// walks is the batch of traversals waiting for the next walk (fabric
	// shard only). It is empty between epochs.
	walks []walk
	// census is the audit's per-shard packet census, one entry per shard,
	// reused by every checkpoint (nil until AttachAudit).
	census []pktCensus
	// evOwed counts, per shard, the pooled events left on the fabric's
	// free list by traversals that died in the fabric (see coreEvent);
	// foldDiag hands them back. Fabric shard only; nil when serial.
	evOwed []int

	gap      sim.Duration // inter-packet dark gap a wire needs (6T + margin)
	duration sim.Duration // data packet wire occupancy
	ackDur   sim.Duration
	rto      sim.Duration
	perStage sim.Duration // Table V switch latency for the multiplicity
	// flight is the fixed transmit-start→delivery time of a successful
	// data attempt: serialization + both host fibers + every stage's
	// switch latency. Baldur's fabric is bufferless, so every delivered
	// packet spends exactly this long in flight; the lifecycle tracer uses
	// it to reconstruct the delivered attempt's per-stage spans at the
	// destination without touching sender state.
	flight sim.Duration
	// reuse and ackReuse are how long a released data packet and ACK wait
	// in their shard's quarantine: the kind's flight time plus the
	// lookahead (see nic.release).
	reuse, ackReuse sim.Duration

	// onDrop, when non-nil, observes every drop (ProbePath's hook; fabric
	// shard only).
	onDrop func(p *netsim.Packet)

	// Fault state (Sec IV-F diagnosis plus internal/faults scripting):
	// deadSwitch is a set over (stage, switch), deadLink a set over severed
	// host fibers, degrade the per-hop drop probability of degraded-laser
	// operation and degradeRNG the fabric-shard stream behind its draws.
	// faulty caches "any fault active" so the healthy traverse path pays
	// one predictable branch per site; testPath >= 0 forces deterministic
	// single-path routing.
	faulty     bool
	deadSwitch faults.Bitset
	deadLink   faults.Bitset
	degrade    float64
	degradeRNG *sim.RNG
	testPath   int

	Stats Stats
}

// New builds a Baldur network.
func New(cfg Config) (*Network, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	mb, err := buildTopo(cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, mb: mb}
	n.duration, n.ackDur, n.gap, n.rto = deriveTiming(cfg, mb)
	n.perStage = switchLatency(cfg.Multiplicity)
	n.flight = n.duration + 2*netsim.HostLinkDelay + sim.Duration(mb.Stages)*n.perStage
	// An ACK's flight differs from a data packet's only in serialization.
	n.reuse = n.flight + netsim.HostLinkDelay
	n.ackReuse = n.flight - n.duration + n.ackDur + netsim.HostLinkDelay
	// A traversal starts at most 2^31 ps past busyBase and reserves a wire
	// up to its last stage's start plus one occupancy past that start.
	if reach := sim.Duration(mb.Stages)*n.perStage + max(n.duration, n.ackDur) + n.gap; reach >= busyWindow {
		return nil, fmt.Errorf("core: a traversal reserves wires %v past its start (link rate %v bit/s), want < %v",
			reach, cfg.LinkRate, busyWindow)
	}
	// One slot per (stage, output wire). Each stage of traverse writes
	// busy[i] and reads the wiring table's entry i. Both tables have 4-byte
	// entries in page-aligned arrays, so those two would share their low
	// address bits and contend for the same cache sets. Starting busy one
	// cache line into its array keeps them apart: without it a
	// 131,072-node cell took 8% more CPU time (2-vCPU Xeon).
	const pad = 64 / 4
	n.busyStride = mb.SwitchesPerStage() * 2 * cfg.Multiplicity
	busy := make([]uint32, pad+mb.Stages*n.busyStride)
	prof.AdviseHugePages(busy)
	n.busy = busy[pad:]
	n.Stats.DropsByStage = make([]uint64, mb.Stages)
	n.testPath = -1
	n.degradeRNG = sim.NewRNG(cfg.Seed ^ 0xdec4ade)

	// Shard layout: serial runs use one shard; parallel runs dedicate
	// shard 0 to the fabric and spread NICs in contiguous blocks over
	// shards 1..K-1. The lookahead is the host link delay — the minimum
	// latency of every NIC<->fabric interaction.
	k := cfg.Shards
	if k < 2 {
		k = 1
	} else if k-1 > cfg.Nodes {
		k = cfg.Nodes + 1
	}
	n.shards = make([]*coreShard, k)
	views := make([]*netsim.Shard, k)
	for i := range n.shards {
		sh := &coreShard{dropsByStage: make([]uint64, mb.Stages)}
		n.shards[i], views[i] = sh, &sh.Shard
	}
	n.Shards = netsim.NewShards(netsim.HostLinkDelay, &n.Stats.Ledger, n.foldDiag, views...)
	n.fab = n.shards[0]
	n.fabAct = sim.MakeActor(1)
	n.walks = make([]walk, 0, n.walkWidth())
	if k > 1 {
		n.fab.Sim.EpochEnd = n.walk
		n.evOwed = make([]int, k)
	}

	base := sim.NewRNG(cfg.Seed ^ 0xba1d0e)
	n.nics = make([]nic, cfg.Nodes)
	for i := range n.nics {
		shard := n.shards[0]
		if k > 1 {
			shard = n.shards[1+i*(k-1)/cfg.Nodes]
		}
		n.nics[i].init(n, i, shard, base.Fork(uint64(i)+1))
	}
	return n, nil
}

// headerDuration is the on-wire time of the length-encoded routing header:
// one 3T slot per stage at the 60 Gbps encoding rate (T = 16.667 ps).
func headerDuration(stages int) sim.Duration {
	const slotPS = 50 // 3T = 50 ps
	return sim.Duration(stages*slotPS) * sim.Picosecond
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.cfg.Nodes }

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Multiplicity returns the effective path multiplicity.
func (n *Network) Multiplicity() int { return n.cfg.Multiplicity }

// Stages returns the number of switch stages (log2 N).
func (n *Network) Stages() int { return n.mb.Stages }

// Send creates and enqueues a data packet, taken from the source NIC's
// shard's pool. It panics on invalid node ids (always a workload bug).
func (n *Network) Send(src, dst, size int) *netsim.Packet {
	if src < 0 || src >= n.cfg.Nodes || dst < 0 || dst >= n.cfg.Nodes {
		panic(fmt.Sprintf("core: Send(%d,%d) outside [0,%d)", src, dst, n.cfg.Nodes))
	}
	if size <= 0 {
		size = netsim.PacketSize
	}
	nic := &n.nics[src]
	// IDs are per-source (high bits = src+1) so allocation is shard-local
	// and the numbering is invariant to shard count.
	p := nic.sh.pkts.Get(nic.eng.Now())
	*p = netsim.Packet{
		ID:      uint64(src+1)<<32 | (nic.nextSeq + 1),
		Src:     src,
		Dst:     dst,
		Size:    size,
		Created: nic.eng.Now(),
		Seq:     nic.nextSeq,
	}
	nic.nextSeq++
	nic.sh.Inject(p)
	nic.enqueueData(p)
	return p
}

// traverse hands a transmission whose head reached stage 0 at t0 to the
// fabric walk. Every packet incurs the identical per-stage latency, so head
// arrivals at every stage preserve the order of the traversals, and a whole
// path can be resolved at once, without per-stage events. The traversal
// joins the fabric's batch; walk resolves the batch when it is full, before
// the occupancy table is rebased, and at the end of every epoch.
func (n *Network) traverse(p *netsim.Packet, t0 sim.Time) {
	if t0.Sub(n.busyBase) >= busyWindow {
		n.walk() // the pending walks' offsets are from the current base
		n.rebase(t0)
	}
	occ := n.duration
	if p.Ack {
		occ = n.ackDur
	}
	sw, _ := n.mb.InjectionSwitch(p.Src)
	n.walks = append(n.walks, walk{
		p: p, t0: t0, rel: uint32(t0.Sub(n.busyBase)), occ: uint32(occ + n.gap),
		dst: int32(p.Dst), sw: sw, drop: walking,
	})
	if len(n.walks) >= n.walkWidth() {
		n.walk()
	}
}

// walk is one pending traversal of the fabric's batch.
type walk struct {
	p  *netsim.Packet
	t0 sim.Time // the head reaches stage 0
	// rel is t0 in ticks past busyBase, occ the wire reservation: the
	// packet's serialization plus the dark gap. dst copies p.Dst, so the
	// stage loop reads only the batch.
	rel, occ uint32
	dst      int32
	// sw is the switch at the stage being walked; once every stage is
	// walked, the destination node.
	sw int32
	// drop is where the traversal was lost: walking while it is not, s
	// at a switch of stage s, -1 on the source's host fiber. fault
	// attributes the loss to a fault.
	drop  int32
	fault bool
}

// walking is walk.drop of a traversal that has not been lost.
const walking = math.MinInt32

// walkBatch is how many traversals the fabric batches into one walk when
// their order across packets is unobservable (see walkWidth). On the
// 131,072-node cell at K=2, widths of 8, 16, 32 and 64 ran alike (median
// wall times 6.7-6.9 s over seven runs each, inside the run-to-run spread;
// width 1 ran 7.7 s, 2-vCPU Xeon).
const walkBatch = 16

// walkWidth is the batch width walk runs at. Batching needs an epoch
// barrier to flush at, so a serial network walks each traversal at once; so
// does one whose walk is observable across packets: fault draws and checks,
// hop records and the drop observer all see traversals in walk order.
func (n *Network) walkWidth() int {
	if len(n.shards) == 1 || n.faulty || n.fab.Probe != nil || n.onDrop != nil {
		return 1
	}
	return walkBatch
}

// walk resolves every pending traversal of the batch, stage by stage: at
// stage s it checks and reserves each traversal's output wire in batch
// order, then moves on to stage s+1. Traversals share only same-stage
// entries of busy, and at each stage they reach them in batch order (the
// order of their traverse calls), so the result is exactly that of walking
// them one after another; interleaving the stages keeps one miss on the
// occupancy table in flight per traversal instead of one at a time. The
// side effects — attempt counters, drops and the receive handoffs, whose
// keys the fabric actor draws in this order — follow in batch order.
func (n *Network) walk() {
	b := n.walks
	m := n.cfg.Multiplicity
	faulty, testPath := n.faulty, n.testPath
	tp := n.fab.Probe
	if faulty {
		for i := range b {
			// The source's host fiber is cut: the attempt never reaches
			// stage 0.
			if w := &b[i]; n.deadLink.Get(w.p.Src) {
				w.drop, w.fault = -1, true
			}
		}
	}
	perStage := uint32(n.perStage)
	for s := 0; s < n.mb.Stages; s++ {
		busy := n.busy[s*n.busyStride : (s+1)*n.busyStride]
		shift := n.mb.Stages - 1 - s
		for i := range b {
			w := &b[i]
			if w.drop != walking {
				continue
			}
			// A faulty switch loses everything; a degraded laser leaves
			// the hop's light level below the detection threshold.
			if faulty && (n.deadSwitch.Get(s*n.mb.SwitchesPerStage()+int(w.sw)) ||
				n.degrade > 0 && n.degradeRNG.Float64() < n.degrade) {
				w.drop, w.fault = int32(s), true
				continue
			}
			d := int(w.dst>>shift) & 1
			base := int(w.sw)*2*m + d*m
			rel := w.rel + uint32(s)*perStage
			found := -1 // path index
			if testPath >= 0 {
				// Diagnostic mode: only the configured path is enabled.
				if busy[base+testPath] <= rel {
					found = testPath
				}
			} else {
				for q := 0; q < m; q++ {
					if busy[base+q] <= rel {
						found = q
						break
					}
				}
			}
			if found < 0 {
				// Every path of the direction is carrying a packet:
				// bufferless drop. Wires already granted upstream
				// still carry the dead packet's light; they stay
				// occupied.
				w.drop = int32(s)
				continue
			}
			busy[base+found] = rel + w.occ
			if tp != nil {
				tp.Hops.Inc()
				t := w.t0.Add(sim.Duration(s) * n.perStage)
				n.fab.Record(telemetry.KindHop, w.p, t, sim.Duration(w.occ)-n.gap, int32(s), w.sw)
			}
			w.sw = n.mb.OutWire(s, w.sw, d, found).Switch
		}
	}
	stages := sim.Duration(n.mb.Stages) * n.perStage
	for i := range b {
		w := &b[i]
		p := w.p
		if p.Ack {
			n.fab.Ledger.AckAttempts++
		} else {
			n.fab.Ledger.DataAttempts++
		}
		if n.fab.aud != nil {
			n.fab.aud.checkLive(p)
		}
		switch {
		case w.drop == walking && faulty && n.deadLink.Get(int(w.sw)):
			// w.sw is now the destination node id; its host fiber is
			// cut.
			n.drop(p, -1, true, w.t0.Add(stages))
		case w.drop == walking:
			// The last bit lands after the output host link plus the
			// serialization time.
			n.postReceive(w.t0.Add(stages+netsim.HostLinkDelay+sim.Duration(w.occ)-n.gap), &n.nics[w.sw], p)
		case w.drop < 0:
			n.drop(p, -1, true, w.t0)
		default:
			n.drop(p, int(w.drop), w.fault, w.t0.Add(sim.Duration(w.drop)*n.perStage))
		}
		w.p = nil
	}
	n.walks = b[:0]
}

// busyWindow is how far past busyBase a traversal may start before traverse
// rebases the occupancy table: 2^31 ps, about 2.1 ms of fabric time.
const busyWindow = sim.Duration(1) << 31

// rebase moves busyBase to t0, the start of a traversal, rewriting every
// wire's offset relative to it. A reservation that ended before t0 becomes
// 0, which is free at t0 and at every later query just as before: the fabric
// shard's traversals start in time order. It costs one pass over the table
// per 2^31 ps of fabric time.
func (n *Network) rebase(t0 sim.Time) {
	shift := t0.Sub(n.busyBase)
	for w, e := range n.busy {
		n.busy[w] = uint32(max(0, sim.Duration(e)-shift))
	}
	n.busyBase = t0
}

// busyWires counts the output wires carrying a packet at now.
func (n *Network) busyWires(now sim.Time) uint64 {
	var busy uint64
	for _, e := range n.busy {
		if n.busyBase.Add(sim.Duration(e)) > now {
			busy++
		}
	}
	return busy
}

// drop loses a transmission at a switch stage, or on a severed host fiber
// when stage < 0 (no contention stage to charge); fault attributes the loss
// to an injected fault. The source discovers a lost data attempt via its
// local timer, already scheduled. (With the protocol disabled the packet is
// simply lost; nothing tracks it: enqueueData skips the outstanding set in
// that mode.) The packet stays its source shard's to release.
func (n *Network) drop(p *netsim.Packet, stage int, fault bool, t sim.Time) {
	st := n.fab.Ledger
	if stage >= 0 {
		n.fab.dropsByStage[stage]++
	}
	if fault {
		st.FaultDrops++
	}
	if n.onDrop != nil {
		n.onDrop(p)
	}
	n.fab.Record(telemetry.KindDrop, p, t, 0, int32(stage), 0)
	if p.Ack {
		st.AckDrops++
	} else {
		st.DataDrops++
	}
	if n.evOwed != nil {
		// The exchange the traversal belonged to will not hand its data
		// packet's source shard an event back.
		src := p.Src
		if p.Ack {
			src = p.Dst
		}
		n.evOwed[n.nics[src].sh.Sim.ID]++
	}
}
