package sim

import (
	"math"
	"sync"
)

// ShardedEngine runs K per-shard Engines in lockstep epochs — a conservative
// parallel DES. Each epoch spans [T, T+lookahead) where T is the globally
// earliest pending timestamp; because every cross-shard interaction in the
// model is delayed by at least the lookahead (the minimum cross-shard link
// latency), events inside an epoch cannot causally affect another shard
// within the same epoch, so all shards may dispatch their slice of the epoch
// concurrently. RunUntil does so only for epochs large enough to repay the
// handoff; small ones run shard after shard on the calling goroutine.
//
// Cross-shard handoffs go through per-(src,dst) mailboxes. During an epoch a
// source shard appends to the mailbox's current buffer (it is the only
// writer); at the epoch barrier the coordinator swaps current/previous
// buffers, and the destination shard drains the previous buffer into its own
// queue at the start of its next active epoch. Ingest therefore happens on
// the destination's shard, in parallel when the epoch is, and the
// coordinator only swaps slice headers and scans per-box minima.
//
// Determinism: shards use ScheduleKey with per-actor key streams (Actor), so
// the dispatch order at every timestamp — and thus every model statistic —
// is invariant to K. With K=1 RunUntil degenerates to Engine.RunUntil.
type ShardedEngine struct {
	shards    []*Shard
	lookahead Duration

	// epochEnd is the exclusive upper bound of the epoch being dispatched.
	// Written by the coordinator between epochs, read by workers during one
	// (synchronized by the start-channel / WaitGroup barrier pair).
	epochEnd Time

	// lastEpochEvents is the number of events the latest epoch dispatched,
	// kept across RunUntil calls (0 before the first). It decides whether
	// the next epoch is worth dispatching in parallel.
	lastEpochEvents uint64

	// Epochs counts barrier rounds across all RunUntil calls, and
	// ParallelEpochs those of them dispatched on worker goroutines. Both
	// are exact: the epoch sequence and the per-epoch event counts depend
	// only on the model and K.
	Epochs, ParallelEpochs uint64
}

// Shard is one partition's event queue plus its outgoing mailbox handles.
// Model code running on a shard schedules local work directly on Eng (via
// ScheduleKey) and cross-shard work via Post.
type Shard struct {
	Eng *Engine
	ID  int
	// EpochEnd, when non-nil, runs at the end of every epoch in which the
	// shard was active: after its last event of the epoch, on the goroutine
	// that dispatched them, before the barrier. It is where a model
	// finishes work it deferred during the epoch. Its Posts follow the
	// usual rule, so one to another shard must be timestamped at or after
	// the epoch's end. Serial engines (K=1) have no epochs and never run
	// it.
	EpochEnd func()
	se       *ShardedEngine
	in       []*mailbox // indexed by source shard ID
}

// relay is one cross-shard handoff: an event plus its (time, key) slot.
type relay struct {
	at  Time
	key uint64
	ev  Event
}

// mailbox double-buffers relays between one (src, dst) shard pair. cur is
// appended to by the source during an epoch; prev is drained by the
// destination. The coordinator swaps the two at a barrier, and only when
// prev has been fully drained.
type mailbox struct {
	cur, prev       []relay
	curMin, prevMin Time
}

const maxTime = Time(math.MaxInt64)

// NewShardedEngine returns k shards sharing one epoch clock. For k > 1 the
// lookahead must be positive: it is the model's minimum cross-shard delay.
func NewShardedEngine(k int, lookahead Duration) *ShardedEngine {
	if k < 1 {
		panic("sim: sharded engine needs at least one shard")
	}
	if k > 1 && lookahead <= 0 {
		panic("sim: sharded engine needs a positive lookahead")
	}
	se := &ShardedEngine{lookahead: lookahead}
	for i := 0; i < k; i++ {
		sh := &Shard{Eng: NewEngine(), ID: i, se: se, in: make([]*mailbox, k)}
		for j := 0; j < k; j++ {
			sh.in[j] = &mailbox{curMin: maxTime, prevMin: maxTime}
		}
		se.shards = append(se.shards, sh)
	}
	return se
}

// NumShards returns K.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns the i-th shard.
func (se *ShardedEngine) Shard(i int) *Shard { return se.shards[i] }

// Executed sums dispatched events across shards.
func (se *ShardedEngine) Executed() uint64 {
	var n uint64
	for _, sh := range se.shards {
		n += sh.Eng.Executed
	}
	return n
}

// Pending sums queued events across shards, including undelivered mailbox
// relays. The audit layer compares it with the models' live pooled events at
// checkpoint barriers: every pooled event is queued, in a mailbox, or parked
// on a free list, so more live events than pending ones means a leak.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.Eng.Pending()
		for _, box := range sh.in {
			n += len(box.cur) + len(box.prev)
		}
	}
	return n
}

// NextTime returns the globally earliest pending timestamp across every
// shard's queue and mailbox, or the end of time when nothing is queued.
func (se *ShardedEngine) NextTime() Time {
	t := maxTime
	for _, sh := range se.shards {
		if sh.Eng.Pending() > 0 {
			t = min(t, sh.Eng.NextTime())
		}
		for _, box := range sh.in {
			t = min(t, box.curMin, box.prevMin)
		}
	}
	return t
}

// Post schedules ev at (t, key) on shard to, from shard s. Local posts go
// straight to the queue; cross-shard posts are appended to the destination's
// mailbox and become visible after the next barrier. A cross-shard post
// timestamped inside the current epoch is a lookahead violation — the
// destination may already have dispatched past t — so it panics rather than
// silently corrupting causality.
func (s *Shard) Post(to *Shard, t Time, key uint64, ev Event) {
	if to == s {
		s.Eng.ScheduleKey(t, key, ev)
		return
	}
	if t < s.se.epochEnd {
		panic("sim: cross-shard event inside the current epoch (lookahead violation) at " + t.String())
	}
	box := to.in[s.ID]
	box.cur = append(box.cur, relay{at: t, key: key, ev: ev})
	if t < box.curMin {
		box.curMin = t
	}
}

// runEpoch ingests any swapped-in relays, dispatches this shard's events
// with timestamps in [now, end) and then runs the EpochEnd hook.
func (sh *Shard) runEpoch(end Time) {
	for _, box := range sh.in {
		if len(box.prev) == 0 {
			continue
		}
		for i := range box.prev {
			r := &box.prev[i]
			sh.Eng.ScheduleKey(r.at, r.key, r.ev)
			r.ev = nil
		}
		box.prev = box.prev[:0]
		box.prevMin = maxTime
	}
	sh.Eng.RunBefore(end)
	if sh.EpochEnd != nil {
		sh.EpochEnd()
	}
}

// parallelMinEvents is the smallest previous-epoch event count for which
// RunUntil hands the next epoch to worker goroutines; smaller epochs run
// inline, shard after shard, on the coordinator. Handing a shard to another
// goroutine moves its queue and model state to another core, which costs
// more than a small epoch saves: at 55 events per epoch (fault_campaign's
// K=2 cells) parallel dispatch made K=2 1.6x slower than K=1. Chosen from a
// sweep of 512, 1024 and 4096 on fault_campaign (55 events per epoch) and
// datacenter_128k (about 68K), on a 2-core x86-64 host.
const parallelMinEvents = 4096

// parallelMin is the threshold RunUntil applies. It is parallelMinEvents,
// except under the race detector (sharded_race.go), which pins it to 0 so
// every -race run still dispatches each multi-shard epoch concurrently.
// Tests set it to force either mode.
var parallelMin uint64 = parallelMinEvents

// RunUntil dispatches all events with timestamps <= deadline across every
// shard, advances all shard clocks to the deadline, and reports whether
// later events remain queued. With one shard it is exactly
// Engine.RunUntil(deadline). An event timestamped at the very end of time
// (math.MaxInt64) is never dispatched by a sharded engine: it stays queued.
//
// Each epoch runs inline on the calling goroutine when only one shard has
// work in it or the previous epoch dispatched fewer than parallelMin
// events; otherwise the caller runs the first active shard and worker
// goroutines, one per shard and started on first use within the call, run
// the rest. Within an epoch shards interact only through mailboxes, read
// after the barrier, so both modes dispatch exactly the same events.
func (se *ShardedEngine) RunUntil(deadline Time) bool {
	if len(se.shards) == 1 {
		return se.shards[0].Eng.RunUntil(deadline)
	}
	var wg sync.WaitGroup
	var starts []chan Time // per-shard worker channels, made on first use
	defer func() {
		for _, ch := range starts {
			if ch != nil {
				close(ch)
			}
		}
	}()

	active := make([]*Shard, 0, len(se.shards))
	for {
		// Barrier section: workers are parked, the coordinator owns all
		// state. Publish every mailbox's current buffer: swap into prev
		// when prev has been drained, otherwise append (a destination that
		// skipped epochs may hold far-future relays in prev while nearer
		// ones arrive behind them — blocking on the swap would dispatch
		// the nearer ones too late).
		for _, sh := range se.shards {
			for _, box := range sh.in {
				if len(box.cur) == 0 {
					continue
				}
				if len(box.prev) == 0 {
					box.prev, box.cur = box.cur, box.prev
					box.prevMin = box.curMin
				} else {
					box.prev = append(box.prev, box.cur...)
					box.cur = box.cur[:0]
					if box.curMin < box.prevMin {
						box.prevMin = box.curMin
					}
				}
				box.curMin = maxTime
			}
		}
		t := se.NextTime()
		if t > deadline || t == maxTime {
			break
		}
		// Both bounds saturate: t+lookahead at the end of time, and the
		// deadline cap only applies when end > deadline, so deadline+1
		// cannot overflow.
		end := maxTime
		if t < maxTime-Time(se.lookahead) {
			end = t.Add(se.lookahead)
		}
		if end > deadline {
			end = deadline + 1 // RunUntil is inclusive of the deadline
		}
		se.epochEnd = end
		se.Epochs++
		active = active[:0]
		for _, sh := range se.shards {
			runnable := sh.Eng.Pending() > 0 && sh.Eng.NextTime() < end
			if !runnable {
				for _, box := range sh.in {
					if box.prevMin < end {
						runnable = true
						break
					}
				}
			}
			if runnable {
				active = append(active, sh)
			}
		}
		before := se.Executed()
		if len(active) == 1 || se.lastEpochEvents < parallelMin {
			for _, sh := range active {
				sh.runEpoch(end)
			}
		} else {
			if starts == nil {
				starts = make([]chan Time, len(se.shards))
			}
			se.ParallelEpochs++
			wg.Add(len(active) - 1)
			for _, sh := range active[1:] {
				if starts[sh.ID] == nil {
					starts[sh.ID] = make(chan Time, 1)
					go sh.work(starts[sh.ID], &wg)
				}
				starts[sh.ID] <- end
			}
			active[0].runEpoch(end)
			wg.Wait()
		}
		se.lastEpochEvents = se.Executed() - before
	}

	for _, sh := range se.shards {
		sh.Eng.AdvanceTo(deadline)
	}
	more := se.Pending() > 0
	if !more {
		// The run has drained: release every shard's burst-sized arrays,
		// as Engine.RunUntil does. A shard that is idle while others still
		// run keeps them: their relays would refill it, and regrowing on
		// every call raised datacenter_128k's peak RSS by 16%.
		for _, sh := range se.shards {
			sh.Eng.shrinkIfDrained()
		}
	}
	return more
}

// work is a shard's worker goroutine: it runs one epoch per end time
// received, until the channel closes.
func (sh *Shard) work(ends <-chan Time, wg *sync.WaitGroup) {
	for end := range ends {
		sh.runEpoch(end)
		wg.Done()
	}
}
