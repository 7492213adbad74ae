// Package netsim defines the packet type and the network-simulator
// interface shared by Baldur (internal/core), the electrical baselines
// (internal/elecnet) and the workload drivers (internal/traffic,
// internal/trace). Keeping the contract here lets every workload run
// unchanged against every network.
package netsim

import (
	"baldur/internal/check"
	"baldur/internal/sim"
	"baldur/internal/stats"
	"baldur/internal/telemetry"
)

// Packet is one network packet. Packets are created by Network.Send and
// owned by the network until delivery.
type Packet struct {
	ID      uint64
	Src     int
	Dst     int
	Size    int // bytes on the wire
	Created sim.Time

	// Ack marks Baldur acknowledgement packets (internal to the
	// retransmission protocol; never surfaced through OnDeliver).
	Ack bool
	// Seq is the per-source sequence number used for ACK matching and
	// receiver-side deduplication.
	Seq uint64
	// AckFor is the sequence being acknowledged (ACK packets only).
	AckFor uint64
	// Retries counts retransmissions so far.
	Retries int
	// RouteTag carries the per-attempt random routing bits used by the
	// distribution stages of Benes-style topologies (Valiant routing);
	// unused (0) on destination-tag-only networks.
	RouteTag uint64
	// NotBefore delays (re)transmission until the given time (binary
	// exponential backoff).
	NotBefore sim.Time
	// Acked marks packets whose ACK arrived while they were still queued
	// for retransmission; the NIC discards them instead of sending.
	Acked bool
	// Flow tags packets belonging to a service-workload flow
	// (internal/workload); 0 means the packet is not flow traffic. The
	// tag, tenant and per-flow packet count ride in the packet so the
	// destination shard can account flow completion without any
	// cross-shard reads: every packet of a flow shares one (src, dst)
	// pair, so all of a flow's deliveries land on the destination node's
	// shard.
	Flow uint64
	// FlowPackets is the total packet count of the flow Flow belongs to.
	FlowPackets int32
	// Tenant is the 1-based tenant index of the flow's owner (0 = none).
	Tenant int32
	// Traced marks packets selected by the deterministic lifecycle-trace
	// sampler (telemetry.Sampled on the packet id). Only the shard that
	// owns the packet may read or write TraceCursor.
	Traced bool
	// TraceCursor is the start of the traced packet's current lifecycle
	// phase; networks advance it as they emit spans so that consecutive
	// spans tile the packet's life with no gaps or overlaps.
	TraceCursor sim.Time
}

// Reset clears p for reuse. Networks that recycle packets whose lifetime
// they fully control (e.g. Baldur ACKs, which never surface through
// OnDeliver) call this when taking a packet from their pool.
func (p *Packet) Reset() { *p = Packet{} }

// Network is a simulated interconnect and the one run contract every
// workload and experiment drives: Baldur (internal/core), the electrical
// baselines and the ideal reference network (internal/elecnet) all
// implement it, the serial-only ideal network as a single shard.
// Implementations are externally single-threaded: all calls must happen
// from the owning goroutine or from within engine events.
type Network interface {
	// Engine returns shard 0's event engine, which holds the whole
	// network when serial. Workload generators schedule through
	// ScheduleNode and runs go through Run; Engine serves the clock and
	// the serial Engine().Run() idiom.
	Engine() *sim.Engine
	// NumNodes returns the number of server nodes.
	NumNodes() int
	// Send creates a data packet from src to dst and hands it to src's
	// NIC at the current virtual time. It returns the packet.
	Send(src, dst, size int) *Packet
	// OnDeliver registers the delivery callback, invoked exactly once
	// per unique data packet when its last bit reaches the destination.
	// On sharded networks the callback runs on the destination node's
	// shard; callbacks must only touch per-node or per-shard state.
	OnDeliver(fn func(p *Packet, at sim.Time))
	// Ledger returns the network's packet accounting as of the last
	// barrier (the aggregate Run folds on sharded networks).
	Ledger() Ledger
	// Run dispatches all events up to and including deadline across every
	// shard, folds per-shard statistics, and reports whether events remain.
	Run(deadline sim.Time) bool
	// Events returns the total number of dispatched events.
	Events() uint64
	// Epochs returns how many lockstep synchronization epochs the sharded
	// engine has executed (0 for single-shard runs, where no barriers
	// exist).
	Epochs() uint64
	// NumShards returns the shard count K (1 when serial).
	NumShards() int
	// NodeShard returns the shard owning a node's NIC.
	NodeShard(node int) int
	// ScheduleNode schedules ev at time t on node's shard with a
	// deterministic per-node tie-break key. It must be called either
	// before the run starts or from an event already executing on that
	// node's shard.
	ScheduleNode(node int, t sim.Time, ev sim.Event)
}

// Instrumented is implemented by networks that can record into a telemetry
// layer. AttachTelemetry registers the network's metrics in tel's registry,
// resolves per-shard probe handles, and hooks a gauge-refresh callback; it
// must be called before the run starts, at most once per network instance.
type Instrumented interface {
	Network
	AttachTelemetry(tel *telemetry.Telemetry)
}

// Audited is implemented by networks that can attach the invariant-audit
// layer. AttachAudit registers the network's conservation ledgers and pool
// censuses as checkpoint callbacks on a and arms the per-shard audit
// counters; it must be called before the run starts, at most once per
// network instance. Runs driven by Drive then evaluate every ledger at each
// slice barrier and once more when the run drains or hits the deadline.
type Audited interface {
	Network
	AttachAudit(a *check.Auditor)
}

// Ledger is a network's packet accounting, folded across shards at the last
// barrier: the counters conservation audits, run fingerprints and
// availability tracking read. Each network fills the counters it keeps and
// leaves the rest zero (the lossless electrical networks make no attempts
// and retransmit nothing; Baldur keeps no hop bound).
type Ledger struct {
	Injected        uint64 // unique data packets handed to Send
	Delivered       uint64 // unique data packets delivered
	Duplicates      uint64 // redundant deliveries discarded by dedup
	DataAttempts    uint64 // data transmissions entering the fabric
	DataDrops       uint64 // data transmissions dropped in-network
	AckAttempts     uint64
	AckDrops        uint64
	Retransmissions uint64
	GaveUp          uint64 // data packets abandoned at the attempt cap
	FaultDrops      uint64 // transmissions lost to injected faults
	Dropped         uint64 // packets lost to faults on lossless networks
	MaxHops         int
}

// Timeline is a time-ordered schedule of actions that may only run at a full
// barrier of the sharded engine (faults.Controller walking a fault script).
type Timeline interface {
	// NextAt returns the time of the next unapplied action.
	NextAt() (sim.Time, bool)
	// Pending reports whether unapplied actions remain.
	Pending() bool
	// ApplyDue applies every action due at or before now and returns how
	// many it applied.
	ApplyDue(n Network, now sim.Time, tel *telemetry.Telemetry) (int, error)
}

// DriveOptions configures Drive.
type DriveOptions struct {
	// Deadline bounds virtual time.
	Deadline sim.Time
	// Interval is the slice width between barriers (0: the telemetry
	// sample interval if attached, else the audit interval, else
	// check.DefaultInterval). Timeline actions additionally force a barrier
	// at their exact times.
	Interval sim.Duration
	// Tel, when non-nil, takes one metric sample at every boundary.
	Tel *telemetry.Telemetry
	// Aud, when non-nil, runs an audit checkpoint at every boundary.
	Aud *check.Auditor
	// Observe, when non-nil, is called at every boundary after the
	// network ran to at (and before the barrier's due actions apply) —
	// the hook availability tracking hangs off.
	Observe func(at sim.Time, drained bool)
}

// Drive runs n to the deadline. With no timeline, telemetry, auditor or
// observer it is exactly one Run call. Otherwise it runs in barrier-aligned
// slices, and at each boundary it samples tel, checkpoints aud (drained is
// true once no events remain queued and no timeline action is pending),
// calls Observe, and applies the timeline's due actions. Boundaries are
// multiples of the interval plus the exact action times, clipped to the
// deadline — none of which depend on the shard count, and each boundary is a
// full barrier of the sharded engine, so sliced runs are bit-identical for
// any K. A run that drains stops at the first boundary after it does, since
// every further slice would be empty. Returns true if events remain queued
// at the deadline; an error comes only from the timeline.
func Drive(n Network, tl Timeline, opts DriveOptions) (bool, error) {
	if tl == nil && opts.Tel == nil && opts.Aud == nil && opts.Observe == nil {
		return n.Run(opts.Deadline), nil
	}
	iv := opts.Interval
	if iv == 0 {
		switch {
		case opts.Tel != nil:
			iv = opts.Tel.Interval()
		case opts.Aud != nil:
			iv = opts.Aud.Interval()
		default:
			iv = check.DefaultInterval
		}
	}
	now := n.Engine().Now()
	// Actions due at or before the start apply before anything runs.
	if tl != nil {
		if _, err := tl.ApplyDue(n, now, opts.Tel); err != nil {
			return true, err
		}
	}
	for {
		t := now.Add(iv)
		if tl != nil {
			if at, ok := tl.NextAt(); ok && at < t {
				t = at
				if t <= now {
					t = now.Add(sim.Picosecond)
				}
			}
		}
		if t > opts.Deadline {
			t = opts.Deadline
		}
		more := n.Run(t)
		if opts.Tel != nil {
			opts.Tel.Sample(t, n.Events(), n.Epochs())
		}
		drained := !more && (tl == nil || !tl.Pending())
		if opts.Aud != nil {
			opts.Aud.Checkpoint(t, drained)
		}
		if opts.Observe != nil {
			opts.Observe(t, drained)
		}
		applied := 0
		if tl != nil {
			var err error
			if applied, err = tl.ApplyDue(n, t, opts.Tel); err != nil {
				return more, err
			}
		}
		if t >= opts.Deadline {
			return more, nil
		}
		if drained && applied == 0 {
			return false, nil
		}
		now = t
	}
}

// Run is n.Run(deadline). Run, Events and Epochs forward to the Network
// methods of the same name; they stay as package functions only because the
// benchmark harness under bench/ calls them. Other code calls the methods.
func Run(n Network, deadline sim.Time) bool { return n.Run(deadline) }

// Events is n.Events().
func Events(n Network) uint64 { return n.Events() }

// Epochs is n.Epochs().
func Epochs(n Network) uint64 { return n.Epochs() }

// Collector accumulates the latency statistics the paper reports: average
// and 99th-percentile ("tail") packet latency in nanoseconds.
//
// Deliveries are recorded into per-shard histograms (each updated only by
// its shard's goroutine) and exact per-node mean accumulators, then merged
// in fixed order on demand — so the reported statistics are bit-identical
// regardless of shard count. Attach may be called again after a run to
// reuse the collector's allocations for another network of the same shape.
type Collector struct {
	// Warmup, if set, excludes packets *created* before this virtual
	// time from the statistics (standard steady-state measurement
	// practice; deliveries still count toward Delivered).
	Warmup sim.Time

	shards    []colShard
	perNode   []nodeAcc
	nodeShard []int32
	merged    stats.Histogram
}

// colShard is one shard's slice of the statistics, padded so neighbouring
// shards' hot counters do not share a cache line.
type colShard struct {
	hist      stats.Histogram
	delivered uint64
	last      sim.Time // latest delivery seen by this shard
	_         [40]byte
}

// nodeAcc is one node's exact latency sum, merged in node order for an
// order-invariant mean.
type nodeAcc struct {
	sum float64
	n   int64
}

// Attach subscribes the collector to a network's deliveries, resetting any
// previously collected statistics while keeping allocations. Latency is
// measured from packet creation (entering the source queue) to last-bit
// delivery, the same definition CODES reports.
func (c *Collector) Attach(n Network) {
	k, nodes := n.NumShards(), n.NumNodes()
	if len(c.shards) != k {
		c.shards = make([]colShard, k)
	} else {
		for i := range c.shards {
			c.shards[i].hist.Reset()
			c.shards[i].delivered = 0
			c.shards[i].last = 0
		}
	}
	if len(c.perNode) != nodes {
		c.perNode = make([]nodeAcc, nodes)
		c.nodeShard = make([]int32, nodes)
	} else {
		for i := range c.perNode {
			c.perNode[i] = nodeAcc{}
		}
	}
	for i := 0; i < nodes; i++ {
		c.nodeShard[i] = int32(n.NodeShard(i))
	}
	c.merged.Reset()
	n.OnDeliver(func(p *Packet, at sim.Time) {
		s := &c.shards[c.nodeShard[p.Dst]]
		s.delivered++
		if at > s.last {
			s.last = at
		}
		if p.Created < c.Warmup {
			return
		}
		lat := float64(at.Sub(p.Created).Nanoseconds())
		s.hist.Add(lat)
		acc := &c.perNode[p.Dst]
		acc.sum += lat
		acc.n++
	})
}

// Delivered returns the count of unique delivered packets.
func (c *Collector) Delivered() uint64 {
	var d uint64
	for i := range c.shards {
		d += c.shards[i].delivered
	}
	return d
}

// LastDelivery returns the virtual time of the latest delivery, folded as a
// max across shards (order-invariant, so the value is bit-identical for any
// shard count). Zero when nothing was delivered.
func (c *Collector) LastDelivery() sim.Time {
	var last sim.Time
	for i := range c.shards {
		if c.shards[i].last > last {
			last = c.shards[i].last
		}
	}
	return last
}

// Samples returns the number of latency observations (post-warmup).
func (c *Collector) Samples() int64 {
	var n int64
	for i := range c.perNode {
		n += c.perNode[i].n
	}
	return n
}

// AvgNS returns the mean packet latency in nanoseconds, computed from exact
// per-node sums folded in node order (shard-count invariant).
func (c *Collector) AvgNS() float64 {
	var sum float64
	var n int64
	for i := range c.perNode {
		sum += c.perNode[i].sum
		n += c.perNode[i].n
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TailNS returns the 99th-percentile packet latency in nanoseconds.
func (c *Collector) TailNS() float64 { return c.Merged().P99() }

// Merged returns the latency histogram folded across shards in shard order,
// recomputed on each call. Quantile queries on it are shard-count invariant
// (they depend only on integer bucket counts and exact min/max). The result
// is owned by the collector and valid until the next delivery or Attach.
func (c *Collector) Merged() *stats.Histogram {
	c.merged.Reset()
	for i := range c.shards {
		c.merged.Merge(&c.shards[i].hist)
	}
	return &c.merged
}

// AttachSpanAudit builds a check.SpanAudit and subscribes it to n's
// deliveries: every traced delivery is witnessed on the destination node's
// shard with exactly the (Created, at) pair the Collector derives latency
// from, which is what the span-attribution invariant is checked against.
// Attach before the run starts; call Verify/VerifyInto after it drains.
func AttachSpanAudit(n Network) *check.SpanAudit {
	a := check.NewSpanAudit(n.NumShards())
	nodes := n.NumNodes()
	nodeShard := make([]int32, nodes)
	for i := 0; i < nodes; i++ {
		nodeShard[i] = int32(n.NodeShard(i))
	}
	n.OnDeliver(func(p *Packet, at sim.Time) {
		if !p.Traced {
			return
		}
		a.Observe(int(nodeShard[p.Dst]), p.ID, p.Created, at)
	})
	return a
}
