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

// Table VI values every network model shares. Per-model values (router
// latency, buffer sizes, stage delays) sit next to each model's constructor.
const (
	// PacketSize is the data packet size in bytes.
	PacketSize = 512
	// LineRate is the host and port line data rate in bit/s.
	LineRate = 25e9
	// HostLinkDelay is the host-to-network fiber delay.
	HostLinkDelay = 100 * sim.Nanosecond
)

// Packet is one network packet. Packets are created by Network.Send and
// owned by the network, which recycles them: a packet is valid only while
// the delivery callback it is passed to runs, and Send's return value only
// until the event that called Send returns. In a sharded Baldur network
// (internal/core) the source NIC's shard owns a packet's mutable fields;
// the fabric and the destination shard only read them, except Seen, which
// only the destination shard writes.
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
	// NotBefore delays (re)transmission until the given time (binary
	// exponential backoff).
	NotBefore sim.Time
	// Acked marks packets whose ACK arrived while they were still queued
	// for retransmission; the NIC discards them instead of sending.
	Acked bool
	// Held marks a Baldur packet waiting at its source NIC: queued, or its
	// transmission pending behind the wire or a backoff window. An ACK that
	// finds its data packet held leaves the release to the NIC's discard.
	Held bool
	// Seen marks a Baldur data packet whose first copy reached its
	// destination NIC; a later copy (a retransmission of the same packet
	// object) finds it set and counts as a duplicate. It is the one field
	// the destination shard writes: the source shard never reads it, and
	// Send clears it only when the packet is reused, after the pool's
	// quarantine has outlasted every copy in flight.
	Seen bool
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

// Network is a simulated interconnect and the one run contract every
// workload and experiment drives: Baldur (internal/core), the electrical
// baselines and the ideal reference network (internal/elecnet) all
// implement it, the serial-only ideal network as a single shard.
// Implementations are externally single-threaded: all calls must happen
// from the owning goroutine or from within engine events.
type Network interface {
	// Engine returns shard 0's event engine, and serves only its clock
	// (Engine().Now()), the network's virtual time between runs. Traffic
	// sources schedule through ScheduleNode and runs go through Run.
	Engine() *sim.Engine
	// NumNodes returns the number of server nodes.
	NumNodes() int
	// Send creates a data packet from src to dst and hands it to src's
	// NIC at the current virtual time. It returns the packet, which the
	// caller may read and tag (Flow, Tenant) until the event that called
	// Send returns; the network recycles it after that.
	Send(src, dst, size int) *Packet
	// OnDeliver registers the delivery callback, invoked exactly once
	// per unique data packet when its last bit reaches the destination.
	// The callback runs on the destination node's shard, and shard is
	// that shard's index, NodeShard(p.Dst); callbacks must only touch
	// per-node state or the state of the shard they are passed. p is
	// valid only during the call: the network recycles it afterwards, so
	// a callback copies out the fields it keeps.
	OnDeliver(fn func(shard int, p *Packet, at sim.Time))
	// Ledger returns the network's packet accounting as of the last Run
	// (the aggregate Run folds from the per-shard ledgers).
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
	// Queued returns the events queued across every shard, undelivered
	// cross-shard relays included.
	Queued() int
	// NextTime returns the earliest queued event time across every shard;
	// meaningful only while Queued is nonzero.
	NextTime() sim.Time
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

// Ledger is a network's packet accounting and its only copy: every shard
// counts into its own Ledger, Network.Ledger returns them folded (Add) at the
// last barrier, and telemetry reads the per-shard values in place
// (Shards.BindTelemetry). Conservation audits, run fingerprints and availability
// tracking read these counters. Each network fills the counters it keeps and
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
	FaultDrops      uint64 // transmissions lost to faults (within DataDrops+AckDrops)
	Dropped         uint64 // packets lost to faults on lossless networks
	MaxHops         int
}

// Add folds o into l: the counters sum and the hop bound takes the max, both
// invariant to the fold order, so a per-shard fold is shard-count invariant.
func (l *Ledger) Add(o *Ledger) {
	l.Injected += o.Injected
	l.Delivered += o.Delivered
	l.Duplicates += o.Duplicates
	l.DataAttempts += o.DataAttempts
	l.DataDrops += o.DataDrops
	l.AckAttempts += o.AckAttempts
	l.AckDrops += o.AckDrops
	l.Retransmissions += o.Retransmissions
	l.GaveUp += o.GaveUp
	l.FaultDrops += o.FaultDrops
	l.Dropped += o.Dropped
	l.MaxHops = max(l.MaxHops, o.MaxHops)
}

// DataDropRate returns dropped / attempted data transmissions, the metric
// of Table V (0 when nothing was attempted).
func (l *Ledger) DataDropRate() float64 {
	if l.DataAttempts == 0 {
		return 0
	}
	return float64(l.DataDrops) / float64(l.DataAttempts)
}

// ledgerCounter returns the address of the Ledger counter exported under
// the telemetry metric name.
func (l *Ledger) ledgerCounter(name string) *uint64 {
	switch name {
	case "injected":
		return &l.Injected
	case "delivered":
		return &l.Delivered
	case "duplicates":
		return &l.Duplicates
	case "data_attempts":
		return &l.DataAttempts
	case "data_drops":
		return &l.DataDrops
	case "ack_attempts":
		return &l.AckAttempts
	case "ack_drops":
		return &l.AckDrops
	case "retransmissions":
		return &l.Retransmissions
	case "dropped":
		return &l.Dropped
	}
	panic("netsim: no ledger counter named " + name)
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
// Deliveries are recorded into per-shard histograms and counts (each updated
// only by its shard's goroutine, indexed by the callback's shard) and exact
// per-node latency sums, then merged in fixed order on demand — so the
// reported statistics are bit-identical regardless of shard count. Attach
// may be called again after a run to reuse the collector's allocations for
// another network of the same shape.
type Collector struct {
	shards []colShard
	sums   []float64 // per destination node, merged in node order
	merged stats.Histogram
}

// colShard is one shard's slice of the statistics, padded so neighbouring
// shards' hot counters do not share a cache line.
type colShard struct {
	hist      stats.Histogram
	delivered uint64
	last      sim.Time // latest delivery seen by this shard
	_         [40]byte
}

// Attach subscribes the collector to a network's deliveries, resetting any
// previously collected statistics while keeping allocations. Latency is
// measured from packet creation (entering the source queue) to last-bit
// delivery, the same definition CODES reports.
func (c *Collector) Attach(n Network) {
	if k := n.NumShards(); len(c.shards) != k {
		c.shards = make([]colShard, k)
	} else {
		for i := range c.shards {
			c.shards[i].hist.Reset()
			c.shards[i].delivered = 0
			c.shards[i].last = 0
		}
	}
	if nodes := n.NumNodes(); len(c.sums) != nodes {
		c.sums = make([]float64, nodes)
	} else {
		clear(c.sums)
	}
	c.merged.Reset()
	n.OnDeliver(func(shard int, p *Packet, at sim.Time) {
		s := &c.shards[shard]
		s.delivered++
		if at > s.last {
			s.last = at
		}
		lat := float64(at.Sub(p.Created).Nanoseconds())
		s.hist.Add(lat)
		c.sums[p.Dst] += lat
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

// Samples returns the number of latency observations: one per delivery.
func (c *Collector) Samples() int64 { return int64(c.Delivered()) }

// AvgNS returns the mean packet latency in nanoseconds, computed from exact
// per-node sums folded in node order (shard-count invariant).
func (c *Collector) AvgNS() float64 {
	n := c.Delivered()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, s := range c.sums {
		sum += s
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
	n.OnDeliver(func(shard int, p *Packet, at sim.Time) {
		if p.Traced {
			a.Observe(shard, p.ID, p.Created, at)
		}
	})
	return a
}
