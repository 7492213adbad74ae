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
	"baldur/internal/prof"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// Table VI router parameters, shared by every buffered network. Each
// network's VC count and link delays sit next to its constructor; the
// packet size, line rate and host link delay are netsim's.
const (
	// RouterLatency is the per-hop header processing and switching time
	// (Mellanox SB7700-class).
	RouterLatency = 90 * sim.Nanosecond
	// bufferBytes is the input buffer per port, shared by all virtual
	// channels. Packets climb one VC per hop, which makes any route with
	// fewer buffered hops than VCs provably deadlock-free.
	bufferBytes = 24 << 10
)

// NetStats are the counters every electrical network keeps: the packet
// ledger's Injected, Delivered, Dropped (packets lost to injected faults —
// dead routers or ports, degraded links, severed node attachments; zero in
// a fault-free run, since the engine is lossless otherwise) and MaxHops.
// They are accumulated per shard during a run and folded into the embedded
// aggregate by Run.
type NetStats = netsim.Ledger

// eshard is one partition of an electrical network: a block of routers and
// their co-located NICs. It embeds the runtime's netsim.Shard (engine shard,
// ledger, telemetry probe) and adds the free lists its goroutine touches;
// nothing here is shared between shards during an epoch. Pooled objects
// (pktState, creditEvent) migrate: they are acquired from the free list of
// the shard that schedules them and released into the free list of the
// shard that executes them. Packets migrate with their state: taken from
// the source NIC's shard's pool, and put back into the pool of the shard
// where they die, after delivery or a fault drop, for immediate reuse.
type eshard struct {
	netsim.Shard
	net      *engine // the network, for the port service event
	stFree   *pktState
	credFree *creditEvent
	pkts     netsim.PacketPool
	// aud is the shard's audit counters; nil disables auditing, like the
	// probe.
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
	// qnext links the VC queue the state waits in (nil when not queued);
	// nextFree links the shard free list.
	qnext    *pktState
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
		if sh.aud != nil {
			sh.aud.checkLive(p)
		}
		n.Deliver(&sh.Shard, p, e.Now())
		sh.pkts.Put(p, e.Now())
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

// fifo is a queue of packet states linked through pktState.qnext. A state
// waits in at most one queue at a time, so the queue needs no backing array:
// an idle port or NIC costs only this header. n keeps len O(1), because the
// audit sums every queue at every checkpoint.
type fifo struct {
	head, tail *pktState
	n          int32
}

func (f *fifo) push(st *pktState) {
	if f.tail == nil {
		f.head = st
	} else {
		f.tail.qnext = st
	}
	f.tail = st
	f.n++
}

// pop unlinks the head, clearing its qnext so that no state outside a queue
// points into one.
func (f *fifo) pop() *pktState {
	st := f.head
	f.head, st.qnext = st.qnext, nil
	if f.head == nil {
		f.tail = nil
	}
	f.n--
	return st
}

func (f *fifo) len() int        { return int(f.n) }
func (f *fifo) peek() *pktState { return f.head }

// outPort is one transmit port of a router, feeding exactly one downstream
// input port (or ejecting to a node). Queues are per virtual channel: a
// blocked VC must not block the others, or head-of-line coupling would
// defeat the ascending-VC deadlock-freedom argument (we observed exactly
// that deadlock with a single FIFO under adversarial dragonfly load).
//
// Ports are the bulk of a network's construction memory (every router's
// sit in one slab), so the fields are ordered and sized to pack into 80
// bytes.
type outPort struct {
	queues    []fifo // per VC
	busyUntil sim.Time
	linkDelay sim.Duration
	// rtr and idx are the backrefs of the typed service event (set on
	// first kick; the scheduled flag guarantees at most one pending event
	// per port, so the port itself is the event).
	rtr *router
	idx int32
	// cred is the offset of the port's credit vector in engine.credits,
	// -1 for an ejection port.
	cred      int32
	queued    int32 // total packets across queues
	rr        int32 // round-robin VC scan start
	peer      int32 // downstream router, or -1 for ejection
	node      int32 // destination node for ejection ports, else -1
	peerIn    int16
	scheduled bool
}

// Run services the port (typed service event).
func (p *outPort) Run(*sim.Engine) { p.rtr.sh.net.servicePort(p.rtr, int(p.idx)) }

// queueLen is the rough queue depth adaptive policies consult.
func (p *outPort) queueLen() int { return int(p.queued) }

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
	cred      int32 // offset of the NIC's credit vector in engine.credits
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
		n.credits[int(nic.cred)+vc]++
		n.kickNIC(nic)
		return
	}
	n.credits[int(r.out[port].cred)+vc]++
	n.kickPort(r, port)
}

// routeFunc picks the output port for a packet at a router. It may mutate
// the packet's routing state (e.g. dragonfly Valiant phase). It runs on the
// router's shard and must consult only that router's state (queues,
// credits, per-router randomness).
type routeFunc func(net *engine, r *router, st *pktState) int

// engine is the shared buffered-network core. Concrete networks embed it,
// provide topology plus a routeFunc, and finish construction with
// partition; the embedded shard runtime provides the run, ledger and
// delivery plumbing.
type engine struct {
	netsim.Shards

	vcs    int // virtual channels per port, fixed per network
	shards []*eshard
	// routers and nics are contiguous slabs indexed by id. They are sized
	// once at construction (initRouters / initNICs) and never reallocated,
	// so interior pointers (&routers[i], port backrefs, pooled events'
	// receiver fields) stay valid for the life of the network.
	routers []router
	nics    []enic
	route   routeFunc
	name    string

	// credits holds every port's and NIC's credit vector back to back:
	// credits[cred+vc] counts the free downstream slots of VC vc. An
	// int32 offset in place of a slice header keeps outPort small.
	credits []int32

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

	// NetStats is the aggregate ledger, refreshed by Run. The embedding
	// promotes Injected/Delivered/MaxHops onto the concrete network types.
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
	src.Sim.Post(dst.Sim, t, from.act.Next(), c)
}

func newEngine(name string, vcs int) *engine {
	return &engine{vcs: vcs, name: name}
}

// slotsPerVC returns the per-VC credit capacity in packets.
func (n *engine) slotsPerVC() int {
	return bufferBytes / n.vcs / netsim.PacketSize
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
	n.shards = make([]*eshard, k)
	views := make([]*netsim.Shard, k)
	for i := range n.shards {
		n.shards[i] = &eshard{net: n}
		views[i] = &n.shards[i].Shard
	}
	n.Shards = netsim.NewShards(la, &n.NetStats, nil, views...)
	for i := range n.routers {
		r := &n.routers[i]
		r.sh = n.shards[rsh[i]]
		r.eng = r.sh.Sim.Eng
		r.act = sim.MakeActor(uint32(i) + 1)
	}
	for i := range n.nics {
		nic := &n.nics[i]
		nic.sh = n.shards[nsh[i]]
		nic.eng = nic.sh.Sim.Eng
		nic.act = sim.MakeActor(uint32(len(n.routers)+i) + 1)
	}
}

func (n *engine) NumNodes() int { return len(n.nics) }

// NodeShard returns the shard owning a node's NIC.
func (n *engine) NodeShard(node int) int { return n.nics[node].sh.Sim.ID }

// ScheduleNode schedules ev on node's shard with the node's deterministic
// tie-break key. Call it before the run starts or from an event already
// executing on that node's shard.
func (n *engine) ScheduleNode(node int, t sim.Time, ev sim.Event) {
	nic := &n.nics[node]
	nic.eng.ScheduleKey(t, nic.act.Next(), ev)
}

// Send creates a packet and enqueues it at src's NIC. In sharded runs it
// must be called from src's shard (injectors scheduled via ScheduleNode
// are) or before the run starts. The packet comes from that shard's pool.
func (n *engine) Send(src, dst, size int) *netsim.Packet {
	if src < 0 || src >= len(n.nics) || dst < 0 || dst >= len(n.nics) {
		panic(fmt.Sprintf("elecnet(%s): Send(%d,%d) outside [0,%d)", n.name, src, dst, len(n.nics)))
	}
	if size <= 0 {
		size = netsim.PacketSize
	}
	nic := &n.nics[src]
	nic.nextSeq++
	p := nic.sh.pkts.Get(nic.eng.Now())
	*p = netsim.Packet{
		ID:      uint64(src+1)<<32 | nic.nextSeq,
		Src:     src,
		Dst:     dst,
		Size:    size,
		Created: nic.eng.Now(),
	}
	nic.sh.Inject(p)
	st := n.acquireState(nic.sh, p)
	nic.queue.push(st)
	n.kickNIC(nic)
	return p
}

func (n *engine) ser(size int) sim.Duration {
	return sim.SerializationTime(size, netsim.LineRate)
}

// newCredits appends a fully stocked credit vector to engine.credits and
// returns its offset.
func (n *engine) newCredits() int32 {
	off := int32(len(n.credits))
	per := int32(n.slotsPerVC())
	for range n.vcs {
		n.credits = append(n.credits, per)
	}
	return off
}

// creditVec returns the credit vector at offset off.
func (n *engine) creditVec(off int32) []int32 { return n.credits[off : int(off)+n.vcs] }

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
		vc := st.vc(n.vcs)
		if n.credits[int(nic.cred)+vc] <= 0 {
			if tp := nic.sh.Probe; tp != nil {
				tp.Blocks.Inc()
				nic.sh.Record(telemetry.KindBlock, st.pkt, now, 0, -1, int32(vc))
			}
			return // waits for a credit return to kick us
		}
		nic.queue.pop()
		n.credits[int(nic.cred)+vc]--
		dur := n.ser(st.pkt.Size)
		nic.busyUntil = now.Add(dur)
		if p := st.pkt; p.Traced {
			// Source-queue wait ends here; the head hits the wire now.
			// Serialization overlaps the cut-through pipeline and is
			// attributed once, at the ejection port.
			nic.sh.Span(telemetry.PhaseQueue, p.TraceCursor, now, p, -1, int32(vc))
			p.TraceCursor = now
		}
		st.holdRouter = nic.edge
		st.holdIn = nic.edgeIn
		edge := &n.routers[nic.edge]
		st.home = edge.sh
		headAt := now.Add(nic.linkDelay + RouterLatency)
		nic.sh.Sim.Post(edge.sh.Sim, headAt, nic.act.Next(), st)
	}
}

// --- Router pipeline ---

// arrive is invoked when a packet's head has crossed the link and the
// router's 90 ns pipeline: the routing decision is made and the packet joins
// an output queue.
func (n *engine) arrive(rid int32, in int16, st *pktState) {
	r := &n.routers[rid]
	if r.sh.aud != nil {
		r.sh.aud.checkLive(st.pkt)
	}
	if n.faulty && n.faultAtArrival(r, st) {
		return
	}
	st.hop++
	if st.hop > r.sh.Ledger.MaxHops {
		r.sh.Ledger.MaxHops = st.hop
	}
	if tp := r.sh.Probe; tp != nil {
		tp.Hops.Inc()
	}
	if p := st.pkt; p.Traced {
		// Head propagation from the previous pop point: upstream link
		// plus this router's pipeline latency.
		r.sh.Span(telemetry.PhaseHop, p.TraceCursor, r.eng.Now(), p, rid, int32(st.hop))
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
		port.queues = make([]fifo, n.vcs)
	}
	vc := st.vc(n.vcs)
	port.queues[vc].push(st)
	port.queued++
	n.kickPort(r, out)
}

func (n *engine) kickPort(r *router, out int) {
	port := &r.out[out]
	if port.scheduled {
		return
	}
	if port.rtr == nil {
		port.rtr, port.idx = r, int32(out)
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
		// port.rr < nvc, so the candidate wraps with one subtraction.
		for i := 0; i < nvc; i++ {
			cand := int(port.rr) + i
			if cand >= nvc {
				cand -= nvc
			}
			if port.queues[cand].len() == 0 {
				continue
			}
			if !isEject && n.credits[int(port.cred)+cand] <= 0 {
				continue
			}
			vc = cand
			break
		}
		if vc < 0 {
			if tp := r.sh.Probe; tp != nil {
				tp.Blocks.Inc()
			}
			return // every waiting VC is out of credits; a return kicks us
		}
		port.rr = int32(vc + 1)
		if int(port.rr) == nvc {
			port.rr = 0
		}
		st := port.queues[vc].pop()
		port.queued--
		dur := n.ser(st.pkt.Size)
		port.busyUntil = now.Add(dur)
		r.sh.Record(telemetry.KindHop, st.pkt, now, dur, r.id, int32(vc))
		if p := st.pkt; p.Traced {
			// Output-queue/credit stall since the head arrived (or since
			// the previous service attempt advanced the cursor).
			r.sh.Span(telemetry.PhaseStall, p.TraceCursor, now, p, r.id, int32(vc))
			p.TraceCursor = now
		}

		// Free the input slot we held on this router once the tail
		// leaves; the credit travels back over the reverse link.
		if st.holdRouter >= 0 {
			n.scheduleCreditReturn(r, st.holdIn, st.vcHeld(n.vcs), port.busyUntil)
		}

		if isEject {
			if p := st.pkt; p.Traced {
				// Final hop: serialization (counted exactly once per
				// packet, here) then the ejection fiber; delivery fires
				// at the link span's end.
				r.sh.Span(telemetry.PhaseWire, now, port.busyUntil, p, r.id, int32(vc))
				r.sh.Span(telemetry.PhaseLink, port.busyUntil, port.busyUntil.Add(port.linkDelay), p, -1, 0)
				p.TraceCursor = port.busyUntil.Add(port.linkDelay)
			}
			st.eject = true
			dst := &n.nics[port.node]
			st.home = dst.sh
			r.sh.Sim.Post(dst.sh.Sim, port.busyUntil.Add(port.linkDelay), r.act.Next(), st)
			continue
		}
		n.credits[int(port.cred)+vc]--
		st.holdRouter = port.peer
		st.holdIn = port.peerIn
		peer := &n.routers[port.peer]
		st.home = peer.sh
		headAt := now.Add(port.linkDelay + RouterLatency)
		r.sh.Sim.Post(peer.sh.Sim, headAt, r.act.Next(), st)
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

// connect wires output port (a, ap) to input port (b, bp) with the given
// link delay, and records the feeder for credit returns.
func (n *engine) connect(a int32, ap int, b int32, bp int, delay sim.Duration) {
	port := &n.routers[a].out[ap]
	port.peer = b
	port.peerIn = int16(bp)
	port.node = -1
	port.linkDelay = delay
	port.cred = n.newCredits()
	n.routers[b].in[bp] = inPort{feederRouter: a, feederPort: int32(ap)}
}

// connectEject makes output port (a, ap) an ejection port to node with the
// given delay.
func (n *engine) connectEject(a int32, ap int, node int32, delay sim.Duration) {
	port := &n.routers[a].out[ap]
	port.peer = -1
	port.node = node
	port.cred = -1
	port.linkDelay = delay
}

// connectNIC attaches node's NIC (a slot in the nics slab) to input port
// (b, bp).
func (n *engine) connectNIC(node int32, b int32, bp int, delay sim.Duration) {
	nic := &n.nics[node]
	nic.id = node
	nic.net = n
	nic.cred = n.newCredits()
	nic.linkDelay = delay
	nic.edge = b
	nic.edgeIn = int16(bp)
	n.routers[b].in[bp] = inPort{feederRouter: -1, feederPort: node}
}

// initRouters sizes the router slab and carves every router's port slices
// out of two shared backing arrays (all three topologies use one radix per
// network, so the slabs are rectangular). One allocation per array replaces
// two slice allocations per router. Every hop reads all three at random, so
// each is advised for huge pages.
func (n *engine) initRouters(count, outPorts, inPorts int) {
	n.outStride = outPorts
	n.routers = make([]router, count)
	outSlab := make([]outPort, count*outPorts)
	inSlab := make([]inPort, count*inPorts)
	prof.AdviseHugePages(n.routers)
	prof.AdviseHugePages(outSlab)
	prof.AdviseHugePages(inSlab)
	for i := range n.routers {
		r := &n.routers[i]
		r.id = int32(i)
		r.out = outSlab[i*outPorts : (i+1)*outPorts : (i+1)*outPorts]
		r.in = inSlab[i*inPorts : (i+1)*inPorts : (i+1)*inPorts]
	}
}

// initNICs sizes the NIC slab, advised for huge pages; connectNIC fills
// the slots in. It follows initRouters, so it also sizes the credit array
// for every router port and NIC.
func (n *engine) initNICs(count int) {
	n.nics = make([]enic, count)
	prof.AdviseHugePages(n.nics)
	n.credits = make([]int32, 0, (len(n.routers)*n.outStride+count)*n.vcs)
}
