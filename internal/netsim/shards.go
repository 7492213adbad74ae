package netsim

import (
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// Shards is the model-agnostic shard runtime every network embeds: it owns
// the sharded engine, one Shard per partition, the delivery callbacks and a
// pointer to the model's aggregate Ledger, and provides Engine, OnDeliver,
// Run, Events, Epochs, NumShards and Ledger to the embedding model by
// promotion. Models keep their topology, routing, NodeShard/ScheduleNode
// (which read per-NIC actors) and gauges.
//
// Shards deliberately declares neither AttachTelemetry nor AttachAudit: a
// model satisfies Instrumented or Audited only by declaring them itself, so
// the uninstrumented ideal network stays uninstrumented.
type Shards struct {
	se        *sim.ShardedEngine
	shards    []*Shard
	agg       *Ledger
	onDeliver []func(shard int, p *Packet, at sim.Time)
	// fold, when non-nil, runs after every ledger fold: the model's hook
	// for aggregating its own per-shard diagnostics.
	fold func()
}

// Shard is one partition's runtime state. Model shard structs embed it, so
// hot paths reach the ledger and probe with no extra indirection.
type Shard struct {
	Sim *sim.Shard
	// Ledger is the shard's packet accounting; Run folds every shard's
	// into the model's aggregate.
	Ledger *Ledger
	// Probe is the shard's resolved telemetry handles; nil (the default)
	// disables recording, and every hook is guarded by that single nil
	// check, so an uninstrumented run pays one predictable branch per site
	// and allocates nothing.
	Probe *Probe
}

// Probe is one shard's resolved telemetry handles.
type Probe struct {
	Hops   telemetry.Count
	Blocks telemetry.Count
	Ring   *telemetry.Ring
	// TraceEvery is the resolved 1-in-N lifecycle-trace sampling rate (0:
	// span capture off). Nonzero only when Ring is non-nil.
	TraceEvery int
}

// NewShards builds the sharded engine with one partition per element of
// shards and binds each to its engine shard and its own ledger, which Run
// folds into agg. fold, when non-nil, runs after every fold.
func NewShards(lookahead sim.Duration, agg *Ledger, fold func(), shards ...*Shard) Shards {
	se := sim.NewShardedEngine(len(shards), lookahead)
	for i, sh := range shards {
		sh.Sim, sh.Ledger = se.Shard(i), new(Ledger)
	}
	return Shards{se: se, shards: shards, agg: agg, fold: fold}
}

// Engine returns shard 0's engine, whose clock is the network's virtual
// time between runs. Events are scheduled with ScheduleNode and dispatched
// by Run.
func (r *Shards) Engine() *sim.Engine { return r.se.Shard(0).Eng }

// OnDeliver registers a unique-delivery callback. Callbacks run in
// registration order on the destination node's shard, are passed that
// shard's index, and must touch only per-node or per-shard state. The
// packet is valid only during the call.
func (r *Shards) OnDeliver(fn func(shard int, p *Packet, at sim.Time)) {
	r.onDeliver = append(r.onDeliver, fn)
}

// Run dispatches all events up to and including deadline across every
// shard, folds the per-shard ledgers into the aggregate and then runs the
// model's fold hook, and reports whether events remain queued. The fold
// sums and takes a max in shard order, so the aggregate is invariant to the
// shard count; it is the only fold, so statistics are read after a Run.
func (r *Shards) Run(deadline sim.Time) bool {
	more := r.se.RunUntil(deadline)
	var agg Ledger
	for _, sh := range r.shards {
		agg.Add(sh.Ledger)
	}
	*r.agg = agg
	if r.fold != nil {
		r.fold()
	}
	return more
}

// Events returns the total number of dispatched events.
func (r *Shards) Events() uint64 { return r.se.Executed() }

// Epochs returns the number of barrier rounds executed so far (0 when
// serial).
func (r *Shards) Epochs() uint64 { return r.se.Epochs }

// ParallelEpochs returns how many of those rounds were dispatched on worker
// goroutines rather than inline on the caller.
func (r *Shards) ParallelEpochs() uint64 { return r.se.ParallelEpochs }

// NumShards returns the shard count K.
func (r *Shards) NumShards() int { return len(r.shards) }

// Ledger returns the aggregate packet accounting as of the last fold.
func (r *Shards) Ledger() Ledger { return *r.agg }

// Queued returns the events queued across every shard, undelivered mailbox
// relays included — the bound audits hold live pooled events to.
func (r *Shards) Queued() int { return r.se.Pending() }

// NextTime returns the earliest queued event time across every shard and
// mailbox; meaningful only while Queued is nonzero.
func (r *Shards) NextTime() sim.Time { return r.se.NextTime() }

// BindTelemetry registers the named ledger counters, in the order given,
// followed by the "hops" and "blocks" counters in tel's registry, and gives
// every shard its probe. The registry reads each shard's own ledger in place
// at barriers, so the sampled series cannot drift from the model's
// accounting. Models call it from their AttachTelemetry before registering
// their gauges.
func (r *Shards) BindTelemetry(tel *telemetry.Telemetry, counters ...string) {
	reg := tel.Reg
	for _, name := range counters {
		vals := make([]*uint64, len(r.shards))
		for i, sh := range r.shards {
			vals[i] = sh.Ledger.ledgerCounter(name)
		}
		reg.CounterOf(name, vals)
	}
	hops := reg.Counter("hops")
	blocks := reg.Counter("blocks")
	for i, sh := range r.shards {
		sh.Probe = &Probe{
			Hops:       reg.Count(hops, i),
			Blocks:     reg.Count(blocks, i),
			Ring:       tel.Ring(i),
			TraceEvery: tel.TraceEvery(),
		}
	}
}

// Inject accounts a freshly created data packet on its source shard: it
// counts it as injected, records the inject event and draws the lifecycle
// trace sample.
func (sh *Shard) Inject(p *Packet) {
	sh.Ledger.Injected++
	if sh.Probe != nil {
		sh.probeInject(p)
	}
}

// probeInject is Inject's recording path, kept out of line so the
// uninstrumented fast path inlines.
func (sh *Shard) probeInject(p *Packet) {
	sh.Record(telemetry.KindInject, p, p.Created, 0, -1, 0)
	if telemetry.Sampled(p.ID, sh.Probe.TraceEvery) {
		p.Traced = true
		p.TraceCursor = p.Created
	}
}

// Delivered counts p's unique delivery on its destination shard and records
// the deliver event. Notify must follow, after any spans the model appends.
func (sh *Shard) Delivered(p *Packet, at sim.Time) {
	sh.Ledger.Delivered++
	sh.Record(telemetry.KindDeliver, p, at, 0, -1, 0)
}

// Record appends one flight record of p to sh's ring when recording; loc
// and aux are the kind's location and detail (-1 and 0 when unused).
func (sh *Shard) Record(kind telemetry.RecordKind, p *Packet, at sim.Time, dur sim.Duration, loc, aux int32) {
	if pr := sh.Probe; pr != nil && pr.Ring != nil {
		pr.Ring.Add(telemetry.Record{
			At: at, Dur: dur, Pkt: p.ID, Kind: kind,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: loc, Aux: aux,
		})
	}
}

// Span appends a lifecycle span of traced packet p to sh's ring when
// recording.
func (sh *Shard) Span(ph telemetry.Phase, from, to sim.Time, p *Packet, loc, aux int32) {
	if pr := sh.Probe; pr != nil && pr.Ring != nil {
		pr.Ring.AddSpan(ph, from, to, p.ID, int32(p.Src), int32(p.Dst), loc, aux)
	}
}

// Notify calls the delivery callbacks in registration order, passing sh's
// index: sh is the shard the delivery runs on, the destination node's.
func (r *Shards) Notify(sh *Shard, p *Packet, at sim.Time) {
	id := sh.Sim.ID
	for _, fn := range r.onDeliver {
		fn(id, p, at)
	}
}

// Deliver is Delivered then Notify: the whole unique-delivery path of a
// model that appends no spans of its own.
func (r *Shards) Deliver(sh *Shard, p *Packet, at sim.Time) {
	sh.Delivered(p, at)
	r.Notify(sh, p, at)
}
