// Package elecnet implements the electrical baseline networks the paper
// compares against (Sec V-A): an electrical multi-butterfly with the same
// randomized topology as Baldur, a dragonfly with adaptive (UGAL-style)
// routing, a 3-level fat-tree with adaptive up-routing, and the ideal
// network (infinite bandwidth, flat 200 ns latency).
//
// The first three share one router engine: virtual cut-through switching
// with credit-based flow control over finite input buffers (Table VI: 24 KB
// per port), a 90 ns router traversal latency (Mellanox SB7700-class), and
// 25 Gbps ports. Electrical networks are lossless: congestion appears as
// queueing delay and, at saturation, as unbounded source-queue growth —
// the same observable CODES reports.
//
// Sharded execution: the router engine partitions along topology units
// (multi-butterfly columns, dragonfly groups, fat-tree pods) onto K
// conservative-parallel shards. Each router and NIC lives on exactly one
// shard; packets and credits crossing a shard boundary travel over links
// whose delay is at least the engine's lookahead, so epochs never violate
// causality. Every event carries a per-actor deterministic key, which makes
// all statistics bit-identical across shard counts.
package elecnet

import (
	"fmt"
	"math"

	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// EngineConfig holds the parameters common to all buffered routers.
type EngineConfig struct {
	// RouterLatency is the per-hop header processing and switching time
	// (default 90 ns, Table VI).
	RouterLatency sim.Duration
	// BufferBytes is the input buffer per port, shared by all virtual
	// channels (default 24 KB).
	BufferBytes int
	// VirtualChannels is the number of VCs the buffer is split into.
	// Packets climb one VC per hop, which makes any route with fewer
	// hops than VCs provably deadlock-free. Defaults are set per
	// network (3 for multi-butterfly and fat-tree per Table VI; 5 for
	// dragonfly, whose longest non-minimal route has 5 router hops).
	VirtualChannels int
	// LinkRate is the port data rate in bit/s (default 25 Gbps).
	LinkRate float64
	// PacketSize is the default packet size in bytes (default 512).
	PacketSize int
}

func (c *EngineConfig) applyDefaults(defaultVCs int) {
	if c.RouterLatency == 0 {
		c.RouterLatency = 90 * sim.Nanosecond
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 24 << 10
	}
	if c.VirtualChannels == 0 {
		c.VirtualChannels = defaultVCs
	}
	if c.LinkRate == 0 {
		c.LinkRate = 25e9
	}
	if c.PacketSize == 0 {
		c.PacketSize = 512
	}
}

// slotsPerVC returns the per-VC credit capacity in packets.
func (c *EngineConfig) slotsPerVC() int {
	per := c.BufferBytes / c.VirtualChannels / c.PacketSize
	if per < 1 {
		per = 1
	}
	return per
}

// NetStats are the counters every electrical network keeps. They are
// accumulated per shard during a run and folded — sums for the counters,
// max for the hop bound, both invariant to the fold order — into the
// embedded aggregate by SyncStats. With a single shard the aggregate is
// updated live.
type NetStats struct {
	Injected  uint64
	Delivered uint64
	// Dropped counts packets lost to injected faults (dead routers or
	// ports, degraded links, severed node attachments). The engine is
	// lossless otherwise, so Dropped is zero in a fault-free run.
	Dropped uint64
	MaxHops int
}

// eshard is one partition of an electrical network: a block of routers and
// their co-located NICs. Each shard owns an event queue, a NetStats slice
// and the free lists its goroutine touches; nothing here is shared between
// shards during an epoch. Pooled objects (pktState, creditEvent) migrate:
// they are acquired from the free list of the shard that schedules them and
// released into the free list of the shard that executes them.
type eshard struct {
	sh       *sim.Shard
	stats    *NetStats
	stFree   *pktState
	credFree *creditEvent
	// tp is the shard's telemetry probe; nil (the default) disables
	// recording, and every hook is guarded by that single nil check.
	tp *elecProbe
	// aud is the shard's audit counters; same nil-to-disable contract.
	aud *elecAudit
}

// pktState is the in-network routing state of one packet. States are
// recycled through per-shard free lists: a packet holds at most one pending
// event at a time (link traversal or ejection), so the state doubles as
// that event's payload and implements sim.Event directly.
type pktState struct {
	pkt *netsim.Packet
	net *engine
	// home is the shard the pending event runs on (and whose free list
	// receives the state when it is released there).
	home *eshard
	// hop counts router hops taken so far; also selects the VC.
	hop int
	// holdRouter/holdIn identify the input buffer slot currently held
	// (-1: still at the source NIC). While a link-traversal event is in
	// flight they also name the event's target input port.
	holdRouter int32
	holdIn     int16
	// eject marks the final pending event: deliver instead of arrive.
	eject bool
	// Dragonfly non-minimal state: the intermediate group (-1 if routing
	// minimally) and whether it has been reached.
	interGroup   int32
	interReached bool
	// nextFree links the shard free list.
	nextFree *pktState
}

// Run dispatches the packet's pending event: arrival at the input port the
// state points at, or final delivery after ejection.
func (st *pktState) Run(e *sim.Engine) {
	n := st.net
	if st.eject {
		p, sh := st.pkt, st.home
		n.releaseState(st)
		if n.faulty && n.deadNode.Get(p.Dst) {
			// The destination's attachment is severed: the last hop's
			// light dies on the cut link. The ejection port already
			// returned the input-slot credit, so only the drop counts.
			n.countDrop(sh, p, e.Now())
			return
		}
		n.deliver(sh, p, e.Now())
		return
	}
	n.arrive(st.holdRouter, st.holdIn, st)
}

func (st *pktState) vc(nvc int) int {
	v := st.hop
	if v >= nvc {
		v = nvc - 1
	}
	return v
}

// fifo is a queue of packet states over a reusable backing array. Popping
// advances a head index instead of reslicing, so steady-state push/pop
// traffic reuses the array's capacity; the naive `q = q[1:]` pop discards
// capacity and forces an allocation on nearly every push (two thirds of the
// Fig 6 sweep's allocations before this type existed).
type fifo struct {
	buf  []*pktState
	head int
}

func (f *fifo) push(st *pktState) {
	if f.head > 16 && f.head*2 >= len(f.buf) {
		// Mostly dead space in front of head: compact in place.
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, st)
}

func (f *fifo) pop() *pktState {
	st := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		// Drained: rewind to the start of the backing array.
		f.buf, f.head = f.buf[:0], 0
	}
	return st
}

func (f *fifo) len() int        { return len(f.buf) - f.head }
func (f *fifo) peek() *pktState { return f.buf[f.head] }

// outPort is one transmit port of a router, feeding exactly one downstream
// input port (or ejecting to a node). Queues are per virtual channel: a
// blocked VC must not block the others, or head-of-line coupling would
// defeat the ascending-VC deadlock-freedom argument (we observed exactly
// that deadlock with a single FIFO under adversarial dragonfly load).
type outPort struct {
	queues    []fifo // per VC
	queued    int    // total packets across queues
	rr        int    // round-robin VC scan start
	busyUntil sim.Time
	// credits[vc] counts free downstream slots of that VC. Vectors are
	// carved from the engine's shared int32 slab: at datacenter scale the
	// per-port allocation count is what dominates construction cost.
	credits   []int32
	linkDelay sim.Duration
	peer      int32 // downstream router, or -1 for ejection
	peerIn    int16
	node      int32 // destination node for ejection ports, else -1
	scheduled bool
	// Backrefs for the typed service event (set on first kick; the
	// scheduled flag guarantees at most one pending event per port, so
	// the port itself is the event).
	net *engine
	rtr *router
	idx int32
}

// Run services the port (typed service event).
func (p *outPort) Run(*sim.Engine) { p.net.servicePort(p.rtr, int(p.idx)) }

// queueLen is the rough queue depth adaptive policies consult.
func (p *outPort) queueLen() int { return p.queued }

// inPort records who feeds a router input, for credit returns. feederPort
// doubles as the NIC/node id when feederRouter == -1, so it must be wide
// enough for a node id — int16 overflows past 32K hosts (the datacenter
// scale runs 128K).
type inPort struct {
	feederRouter int32 // -1 when fed by a NIC
	feederPort   int32 // output port index, or NIC/node id when feederRouter == -1
}

type router struct {
	id  int32
	out []outPort
	in  []inPort

	// Shard residency, set by partition: sh owns this router's events,
	// eng is sh's queue and act the router's deterministic tie-break key
	// stream.
	sh  *eshard
	eng *sim.Engine
	act sim.Actor
}

// enic is a source NIC: an unbounded injection queue feeding one router
// input port through a credit-limited link.
type enic struct {
	id        int32
	net       *engine
	queue     fifo
	busyUntil sim.Time
	credits   []int32
	linkDelay sim.Duration
	edge      int32
	edgeIn    int16
	scheduled bool
	// nextSeq numbers this NIC's packets; combined with the node id it
	// yields globally unique, shard-count-invariant packet IDs.
	nextSeq uint64

	sh  *eshard
	eng *sim.Engine
	act sim.Actor
}

// Run services the NIC (typed service event; the scheduled flag guarantees
// at most one pending event per NIC, so the NIC itself is the event).
func (nic *enic) Run(*sim.Engine) { nic.net.serviceNIC(nic) }

// creditEvent returns one credit to an upstream NIC or router port after
// the reverse-link delay. Instances are recycled through per-shard free
// lists and, like pktState, migrate to the shard that executes them.
type creditEvent struct {
	n    *engine
	home *eshard // shard the event runs on
	nic  *enic   // non-nil: NIC credit return
	r    *router // else: router output port credit return
	port int32
	vc   int32
	next *creditEvent
}

func (c *creditEvent) Run(*sim.Engine) {
	n, nic, r, port, vc := c.n, c.nic, c.r, int(c.port), int(c.vc)
	home := c.home
	c.nic, c.r, c.home = nil, nil, nil
	c.next = home.credFree
	home.credFree = c
	if home.aud != nil {
		home.aud.credit.Put()
	}
	if nic != nil {
		nic.credits[vc]++
		n.kickNIC(nic)
		return
	}
	r.out[port].credits[vc]++
	n.kickPort(r, port)
}

// routeFunc picks the output port for a packet at a router. It may mutate
// the packet's routing state (e.g. dragonfly Valiant phase). It runs on the
// router's shard and must consult only that router's state (queues,
// credits, per-router randomness).
type routeFunc func(net *engine, r *router, st *pktState) int

// engine is the shared buffered-network core. Concrete networks embed it,
// provide topology plus a routeFunc, and finish construction with
// partition.
type engine struct {
	cfg    EngineConfig
	se     *sim.ShardedEngine
	shards []*eshard
	// routers and nics are contiguous slabs indexed by id. They are sized
	// once at construction (initRouters / initNICs) and never reallocated,
	// so interior pointers (&routers[i], port backrefs, pooled events'
	// receiver fields) stay valid for the life of the network.
	routers   []router
	nics      []enic
	route     routeFunc
	onDeliver []func(*netsim.Packet, sim.Time)
	name      string

	// creditSlab is the chunk allocator newCredits carves per-port credit
	// vectors from, replacing one small heap object per port.
	creditSlab []int32

	// Fault state (internal/faults): deadRouter is a set over router ids,
	// deadPort over router*outStride+port, deadNode over node attachments;
	// degrade is the per-hop drop probability and degradeRNG its lazily
	// built per-router streams (arrival order per router is shard-count
	// invariant, so per-router draws are too). faulty caches "any fault
	// active" so the healthy path pays one predictable branch per site;
	// seed feeds the degrade streams.
	faulty     bool
	deadRouter faults.Bitset
	deadPort   faults.Bitset
	deadNode   faults.Bitset
	degrade    float64
	degradeRNG []sim.RNG
	outStride  int
	seed       uint64

	// NetStats is the aggregate view (live with one shard; refreshed by
	// SyncStats — called by Run — otherwise). The embedding promotes
	// Injected/Delivered/MaxHops onto the concrete network types.
	NetStats
}

// acquireState returns a reset pktState from sh's pool.
func (n *engine) acquireState(sh *eshard, p *netsim.Packet) *pktState {
	if sh.aud != nil {
		sh.aud.state.Get()
	}
	st := sh.stFree
	if st != nil {
		sh.stFree = st.nextFree
		*st = pktState{pkt: p, net: n, home: sh, holdRouter: -1, interGroup: -1}
		return st
	}
	return &pktState{pkt: p, net: n, home: sh, holdRouter: -1, interGroup: -1}
}

// releaseState frees st into its home shard's pool (the caller runs on that
// shard).
func (n *engine) releaseState(st *pktState) {
	if st.home.aud != nil {
		st.home.aud.state.Put()
	}
	st.pkt = nil
	st.nextFree = st.home.stFree
	st.home.stFree = st
}

// scheduleCredit enqueues a pooled credit-return event at time t, keyed by
// the returning router's actor. The event is acquired from the returning
// router's shard and posted to — and later freed on — the receiver's shard.
func (n *engine) scheduleCredit(from *router, t sim.Time, nic *enic, r *router, port, vc int) {
	src := from.sh
	dst := src
	if nic != nil {
		dst = nic.sh
	} else {
		dst = r.sh
	}
	c := src.credFree
	if c != nil {
		src.credFree = c.next
	} else {
		c = &creditEvent{}
	}
	if src.aud != nil {
		src.aud.credit.Get()
	}
	c.n, c.home, c.nic, c.r, c.port, c.vc = n, dst, nic, r, int32(port), int32(vc)
	src.sh.Post(dst.sh, t, from.act.Next(), c)
}

func newEngine(cfg EngineConfig, name string, defaultVCs int) *engine {
	cfg.applyDefaults(defaultVCs)
	return &engine{cfg: cfg, name: name}
}

// partition finishes construction: it maps topology units (columns, groups,
// pods — anything whose internal links may be shorter than the lookahead)
// onto min(shards, units) contiguous shard blocks, derives the lookahead as
// the minimum link delay crossing a shard boundary (head events add the
// router latency on top of that; credit returns travel at exactly the link
// delay, so it is the binding constraint), and assigns every router and NIC
// its shard, engine and actor key stream. Constructors must call it before
// returning.
func (n *engine) partition(shards, units int, routerUnit func(int) int, nodeUnit func(int) int) {
	k := shards
	if k < 1 {
		k = 1
	}
	if k > units {
		k = units
	}
	rsh := make([]int, len(n.routers))
	for i := range rsh {
		rsh[i] = routerUnit(i) * k / units
	}
	nsh := make([]int, len(n.nics))
	for i := range nsh {
		nsh[i] = nodeUnit(i) * k / units
	}
	la := sim.Duration(math.MaxInt64)
	for ri := range n.routers {
		r := &n.routers[ri]
		for pi := range r.out {
			port := &r.out[pi]
			switch {
			case port.peer >= 0:
				if rsh[port.peer] != rsh[ri] && port.linkDelay < la {
					la = port.linkDelay
				}
			case port.node >= 0:
				if nsh[port.node] != rsh[ri] && port.linkDelay < la {
					la = port.linkDelay
				}
			}
		}
	}
	for ni := range n.nics {
		nic := &n.nics[ni]
		if rsh[nic.edge] != nsh[ni] && nic.linkDelay < la {
			la = nic.linkDelay
		}
	}
	if la == sim.Duration(math.MaxInt64) {
		la = sim.Nanosecond // single shard: the lookahead is unused
	}
	n.se = sim.NewShardedEngine(k, la)
	n.shards = make([]*eshard, k)
	for i := range n.shards {
		sh := &eshard{sh: n.se.Shard(i)}
		if k == 1 {
			sh.stats = &n.NetStats
		} else {
			sh.stats = &NetStats{}
		}
		n.shards[i] = sh
	}
	for i := range n.routers {
		r := &n.routers[i]
		r.sh = n.shards[rsh[i]]
		r.eng = r.sh.sh.Eng
		r.act = sim.MakeActor(uint32(i) + 1)
	}
	for i := range n.nics {
		nic := &n.nics[i]
		nic.sh = n.shards[nsh[i]]
		nic.eng = nic.sh.sh.Eng
		nic.act = sim.MakeActor(uint32(len(n.routers)+i) + 1)
	}
}

// Engine returns shard 0's event queue: with a single shard (the default)
// that is the whole simulation, preserving the serial Engine().Run() idiom.
// Sharded runs must use Run instead.
func (n *engine) Engine() *sim.Engine { return n.shards[0].sh.Eng }

func (n *engine) NumNodes() int { return len(n.nics) }

// OnDeliver registers a delivery callback. Callbacks run on the shard of
// the packet's destination node and must touch only per-node or per-shard
// state.
func (n *engine) OnDeliver(fn func(p *netsim.Packet, at sim.Time)) {
	n.onDeliver = append(n.onDeliver, fn)
}

// Run dispatches all events up to and including deadline across every
// shard, folds per-shard statistics, and reports whether events remain
// queued (netsim.Network).
func (n *engine) Run(deadline sim.Time) bool {
	more := n.se.RunUntil(deadline)
	n.SyncStats()
	return more
}

// Events returns the total number of dispatched events.
func (n *engine) Events() uint64 { return n.se.Executed() }

// Epochs returns the number of barrier rounds executed so far (0 when
// serial).
func (n *engine) Epochs() uint64 { return n.se.Epochs }

// NumShards returns the shard count K.
func (n *engine) NumShards() int { return n.se.NumShards() }

// NodeShard returns the shard owning a node's NIC.
func (n *engine) NodeShard(node int) int { return n.nics[node].sh.sh.ID }

// ScheduleNode schedules ev on node's shard with the node's deterministic
// tie-break key. Call it before the run starts or from an event already
// executing on that node's shard.
func (n *engine) ScheduleNode(node int, t sim.Time, ev sim.Event) {
	nic := &n.nics[node]
	nic.eng.ScheduleKey(t, nic.act.Next(), ev)
}

// Ledger returns the aggregate counters (netsim.Network).
func (n *engine) Ledger() netsim.Ledger {
	return netsim.Ledger{Injected: n.Injected, Delivered: n.Delivered, Dropped: n.Dropped, MaxHops: n.MaxHops}
}

// SyncStats folds per-shard counters into the embedded aggregate. Sums and
// a max, so the result is invariant to the shard count. Idempotent; no-op
// with a single shard (the aggregate is live).
func (n *engine) SyncStats() {
	if len(n.shards) == 1 {
		return
	}
	var agg NetStats
	for _, sh := range n.shards {
		agg.Injected += sh.stats.Injected
		agg.Delivered += sh.stats.Delivered
		agg.Dropped += sh.stats.Dropped
		if sh.stats.MaxHops > agg.MaxHops {
			agg.MaxHops = sh.stats.MaxHops
		}
	}
	n.NetStats = agg
}

// Send creates a packet and enqueues it at src's NIC. In sharded runs it
// must be called from src's shard (injectors scheduled via ScheduleNode
// are) or before the run starts.
func (n *engine) Send(src, dst, size int) *netsim.Packet {
	if src < 0 || src >= len(n.nics) || dst < 0 || dst >= len(n.nics) {
		panic(fmt.Sprintf("elecnet(%s): Send(%d,%d) outside [0,%d)", n.name, src, dst, len(n.nics)))
	}
	if size <= 0 {
		size = n.cfg.PacketSize
	}
	nic := &n.nics[src]
	nic.nextSeq++
	p := &netsim.Packet{
		ID:      uint64(src+1)<<32 | nic.nextSeq,
		Src:     src,
		Dst:     dst,
		Size:    size,
		Created: nic.eng.Now(),
	}
	nic.sh.stats.Injected++
	if tp := nic.sh.tp; tp != nil {
		tp.injected.Inc()
		if tp.ring != nil {
			tp.ring.Add(telemetry.Record{
				At: p.Created, Pkt: p.ID, Kind: telemetry.KindInject,
				Src: int32(src), Dst: int32(dst), Loc: -1,
			})
		}
		if telemetry.Sampled(p.ID, tp.traceEvery) {
			p.Traced = true
			p.TraceCursor = p.Created
		}
	}
	st := n.acquireState(nic.sh, p)
	nic.queue.push(st)
	n.kickNIC(nic)
	return p
}

func (n *engine) ser(size int) sim.Duration {
	return sim.SerializationTime(size, n.cfg.LinkRate)
}

// newCredits carves a fully stocked credit vector from the shared slab.
func (n *engine) newCredits() []int32 {
	nvc := n.cfg.VirtualChannels
	if len(n.creditSlab) < nvc {
		// Chunked growth: the dead tail of the previous chunk (< nvc
		// entries) is abandoned, bounded by one vector per chunk.
		size := 4096
		if size < nvc {
			size = nvc
		}
		n.creditSlab = make([]int32, size)
	}
	c := n.creditSlab[:nvc:nvc]
	n.creditSlab = n.creditSlab[nvc:]
	per := int32(n.cfg.slotsPerVC())
	for i := range c {
		c[i] = per
	}
	return c
}

// --- NIC service ---

func (n *engine) kickNIC(nic *enic) {
	if nic.scheduled {
		return
	}
	nic.scheduled = true
	nic.eng.ScheduleKey(nic.eng.Now(), nic.act.Next(), nic)
}

func (n *engine) serviceNIC(nic *enic) {
	nic.scheduled = false
	for nic.queue.len() > 0 {
		now := nic.eng.Now()
		if n.faulty && n.deadNode.Get(int(nic.id)) {
			// The node's attachment is severed: everything queued at the
			// source dies on the cut link without consuming credits.
			st := nic.queue.pop()
			n.dropState(nic.sh, st, now)
			continue
		}
		if nic.busyUntil > now {
			nic.scheduled = true
			nic.eng.ScheduleKey(nic.busyUntil, nic.act.Next(), nic)
			return
		}
		st := nic.queue.peek()
		vc := st.vc(n.cfg.VirtualChannels)
		if nic.credits[vc] <= 0 {
			if tp := nic.sh.tp; tp != nil {
				tp.blocks.Inc()
				if tp.ring != nil {
					tp.ring.Add(telemetry.Record{
						At: now, Pkt: st.pkt.ID, Kind: telemetry.KindBlock,
						Src: int32(st.pkt.Src), Dst: int32(st.pkt.Dst),
						Loc: -1, Aux: int32(vc),
					})
				}
			}
			return // waits for a credit return to kick us
		}
		nic.queue.pop()
		nic.credits[vc]--
		dur := n.ser(st.pkt.Size)
		nic.busyUntil = now.Add(dur)
		if p := st.pkt; p.Traced {
			// Source-queue wait ends here; the head hits the wire now.
			// Serialization overlaps the cut-through pipeline and is
			// attributed once, at the ejection port.
			if tp := nic.sh.tp; tp != nil && tp.ring != nil {
				tp.ring.AddSpan(telemetry.PhaseQueue, p.TraceCursor, now,
					p.ID, int32(p.Src), int32(p.Dst), -1, int32(vc))
			}
			p.TraceCursor = now
		}
		st.holdRouter = nic.edge
		st.holdIn = nic.edgeIn
		edge := &n.routers[nic.edge]
		st.home = edge.sh
		headAt := now.Add(nic.linkDelay + n.cfg.RouterLatency)
		nic.sh.sh.Post(edge.sh.sh, headAt, nic.act.Next(), st)
	}
}

// --- Router pipeline ---

// arrive is invoked when a packet's head has crossed the link and the
// router's 90 ns pipeline: the routing decision is made and the packet joins
// an output queue.
func (n *engine) arrive(rid int32, in int16, st *pktState) {
	r := &n.routers[rid]
	if n.faulty && n.faultAtArrival(r, st) {
		return
	}
	st.hop++
	if st.hop > r.sh.stats.MaxHops {
		r.sh.stats.MaxHops = st.hop
	}
	if tp := r.sh.tp; tp != nil {
		tp.hops.Inc()
	}
	if p := st.pkt; p.Traced {
		// Head propagation from the previous pop point: upstream link
		// plus this router's pipeline latency.
		if tp := r.sh.tp; tp != nil && tp.ring != nil {
			tp.ring.AddSpan(telemetry.PhaseHop, p.TraceCursor, r.eng.Now(),
				p.ID, int32(p.Src), int32(p.Dst), rid, int32(st.hop))
		}
		p.TraceCursor = r.eng.Now()
	}
	out := n.route(n, r, st)
	if n.faulty && n.deadPort.Get(int(rid)*n.outStride+out) {
		// The routed output link is severed: the router discards the
		// packet (no alternative-port retry in this engine).
		n.dropFaulty(r, st, r.eng.Now())
		return
	}
	port := &r.out[out]
	if port.queues == nil {
		port.queues = make([]fifo, n.cfg.VirtualChannels)
	}
	vc := st.vc(n.cfg.VirtualChannels)
	port.queues[vc].push(st)
	port.queued++
	n.kickPort(r, out)
}

func (n *engine) kickPort(r *router, out int) {
	port := &r.out[out]
	if port.scheduled {
		return
	}
	if port.net == nil {
		port.net, port.rtr, port.idx = n, r, int32(out)
	}
	port.scheduled = true
	r.eng.ScheduleKey(r.eng.Now(), r.act.Next(), port)
}

func (n *engine) servicePort(r *router, out int) {
	port := &r.out[out]
	port.scheduled = false
	for port.queued > 0 {
		now := r.eng.Now()
		if port.busyUntil > now {
			port.scheduled = true
			r.eng.ScheduleKey(port.busyUntil, r.act.Next(), port)
			return
		}
		// Pick the next serviceable VC round-robin: non-empty and,
		// unless ejecting, holding a downstream credit.
		isEject := port.node >= 0
		nvc := len(port.queues)
		vc := -1
		for i := 0; i < nvc; i++ {
			cand := (port.rr + i) % nvc
			if port.queues[cand].len() == 0 {
				continue
			}
			if !isEject && port.credits[cand] <= 0 {
				continue
			}
			vc = cand
			break
		}
		if vc < 0 {
			if tp := r.sh.tp; tp != nil {
				tp.blocks.Inc()
			}
			return // every waiting VC is out of credits; a return kicks us
		}
		port.rr = (vc + 1) % nvc
		st := port.queues[vc].pop()
		port.queued--
		dur := n.ser(st.pkt.Size)
		port.busyUntil = now.Add(dur)
		if tp := r.sh.tp; tp != nil && tp.ring != nil {
			tp.ring.Add(telemetry.Record{
				At: now, Dur: dur, Pkt: st.pkt.ID, Kind: telemetry.KindHop,
				Src: int32(st.pkt.Src), Dst: int32(st.pkt.Dst),
				Loc: r.id, Aux: int32(vc),
			})
		}
		if p := st.pkt; p.Traced {
			// Output-queue/credit stall since the head arrived (or since
			// the previous service attempt advanced the cursor).
			if tp := r.sh.tp; tp != nil && tp.ring != nil {
				tp.ring.AddSpan(telemetry.PhaseStall, p.TraceCursor, now,
					p.ID, int32(p.Src), int32(p.Dst), r.id, int32(vc))
			}
			p.TraceCursor = now
		}

		// Free the input slot we held on this router once the tail
		// leaves; the credit travels back over the reverse link.
		if st.holdRouter >= 0 {
			n.scheduleCreditReturn(r, st.holdIn, st.vcHeld(n.cfg.VirtualChannels), port.busyUntil)
		}

		if isEject {
			if p := st.pkt; p.Traced {
				// Final hop: serialization (counted exactly once per
				// packet, here) then the ejection fiber; delivery fires
				// at the link span's end.
				if tp := r.sh.tp; tp != nil && tp.ring != nil {
					tp.ring.AddSpan(telemetry.PhaseWire, now, port.busyUntil,
						p.ID, int32(p.Src), int32(p.Dst), r.id, int32(vc))
					tp.ring.AddSpan(telemetry.PhaseLink, port.busyUntil, port.busyUntil.Add(port.linkDelay),
						p.ID, int32(p.Src), int32(p.Dst), -1, 0)
				}
				p.TraceCursor = port.busyUntil.Add(port.linkDelay)
			}
			st.eject = true
			dst := &n.nics[port.node]
			st.home = dst.sh
			r.sh.sh.Post(dst.sh.sh, port.busyUntil.Add(port.linkDelay), r.act.Next(), st)
			continue
		}
		port.credits[vc]--
		st.holdRouter = port.peer
		st.holdIn = port.peerIn
		peer := &n.routers[port.peer]
		st.home = peer.sh
		headAt := now.Add(port.linkDelay + n.cfg.RouterLatency)
		r.sh.sh.Post(peer.sh.sh, headAt, r.act.Next(), st)
	}
}

// vcHeld returns the VC whose slot the packet holds at its current router:
// the VC it arrived on, i.e. of the previous hop count.
func (st *pktState) vcHeld(nvc int) int {
	v := st.hop - 1
	if v < 0 {
		v = 0
	}
	if v >= nvc {
		v = nvc - 1
	}
	return v
}

// scheduleCreditReturn frees the input slot (from, in) held at VC vc; the
// credit reaches the upstream feeder one reverse-link delay after the tail
// clears.
func (n *engine) scheduleCreditReturn(from *router, in int16, vc int, tailAt sim.Time) {
	feeder := from.in[in]
	if feeder.feederRouter < 0 {
		nic := &n.nics[feeder.feederPort]
		n.scheduleCredit(from, tailAt.Add(nic.linkDelay), nic, nil, 0, vc)
		return
	}
	up := &n.routers[feeder.feederRouter]
	upPort := int(feeder.feederPort)
	n.scheduleCredit(from, tailAt.Add(up.out[upPort].linkDelay), nil, up, upPort, vc)
}

func (n *engine) deliver(sh *eshard, p *netsim.Packet, at sim.Time) {
	sh.stats.Delivered++
	if tp := sh.tp; tp != nil {
		tp.delivered.Inc()
		if tp.ring != nil {
			tp.ring.Add(telemetry.Record{
				At: at, Pkt: p.ID, Kind: telemetry.KindDeliver,
				Src: int32(p.Src), Dst: int32(p.Dst), Loc: -1,
			})
		}
	}
	for _, fn := range n.onDeliver {
		fn(p, at)
	}
}

// connect wires output port (a, ap) to input port (b, bp) with the given
// link delay, and records the feeder for credit returns.
func (n *engine) connect(a int32, ap int, b int32, bp int, delay sim.Duration) {
	port := &n.routers[a].out[ap]
	port.peer = b
	port.peerIn = int16(bp)
	port.node = -1
	port.linkDelay = delay
	port.credits = n.newCredits()
	n.routers[b].in[bp] = inPort{feederRouter: a, feederPort: int32(ap)}
}

// connectEject makes output port (a, ap) an ejection port to node with the
// given delay.
func (n *engine) connectEject(a int32, ap int, node int32, delay sim.Duration) {
	port := &n.routers[a].out[ap]
	port.peer = -1
	port.node = node
	port.linkDelay = delay
}

// connectNIC attaches node's NIC (a slot in the nics slab) to input port
// (b, bp).
func (n *engine) connectNIC(node int32, b int32, bp int, delay sim.Duration) {
	nic := &n.nics[node]
	nic.id = node
	nic.net = n
	nic.credits = n.newCredits()
	nic.linkDelay = delay
	nic.edge = b
	nic.edgeIn = int16(bp)
	n.routers[b].in[bp] = inPort{feederRouter: -1, feederPort: node}
}

// initRouters sizes the router slab and carves every router's port slices
// out of two shared backing arrays (all three topologies use one radix per
// network, so the slabs are rectangular). One allocation per array replaces
// two slice allocations per router.
func (n *engine) initRouters(count, outPorts, inPorts int) {
	n.outStride = outPorts
	n.routers = make([]router, count)
	outSlab := make([]outPort, count*outPorts)
	inSlab := make([]inPort, count*inPorts)
	for i := range n.routers {
		r := &n.routers[i]
		r.id = int32(i)
		r.out = outSlab[i*outPorts : (i+1)*outPorts : (i+1)*outPorts]
		r.in = inSlab[i*inPorts : (i+1)*inPorts : (i+1)*inPorts]
	}
}

// initNICs sizes the NIC slab; connectNIC fills the slots in.
func (n *engine) initNICs(count int) {
	n.nics = make([]enic, count)
}
