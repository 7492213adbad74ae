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
// concurrently.
//
// Cross-shard handoffs go through per-(src,dst) mailboxes. During an epoch a
// source shard appends to the mailbox's current buffer (it is the only
// writer); at the epoch barrier the coordinator swaps current/previous
// buffers, and the destination shard drains the previous buffer into its own
// queue at the start of its next active epoch. Ingest therefore happens on
// the destination's worker, in parallel, and the single-threaded coordinator
// only swaps slice headers and scans per-box minima.
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

	// Epochs counts barrier rounds across all RunUntil calls.
	Epochs uint64
}

// Shard is one partition's event queue plus its outgoing mailbox handles.
// Model code running on a shard schedules local work directly on Eng (via
// ScheduleKey) and cross-shard work via Post.
type Shard struct {
	Eng *Engine
	ID  int
	se  *ShardedEngine
	in  []*mailbox // indexed by source shard ID
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

// Lookahead returns the epoch width bound.
func (se *ShardedEngine) Lookahead() Duration { return se.lookahead }

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

// runEpoch ingests any swapped-in relays and dispatches this shard's events
// with timestamps in [now, end).
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
}

// RunUntil dispatches all events with timestamps <= deadline across every
// shard, advances all shard clocks to the deadline, and reports whether
// later events remain queued. With one shard it is exactly
// Engine.RunUntil(deadline).
func (se *ShardedEngine) RunUntil(deadline Time) bool {
	if len(se.shards) == 1 {
		return se.shards[0].Eng.RunUntil(deadline)
	}
	k := len(se.shards)
	var wg sync.WaitGroup
	starts := make([]chan Time, k)
	for i := range starts {
		starts[i] = make(chan Time, 1)
		go func(sh *Shard, ch <-chan Time) {
			for end := range ch {
				sh.runEpoch(end)
				wg.Done()
			}
		}(se.shards[i], starts[i])
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	active := make([]*Shard, 0, k)
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
		// Globally earliest pending timestamp, mailboxes included.
		t := maxTime
		for _, sh := range se.shards {
			if sh.Eng.Pending() > 0 {
				if at := sh.Eng.NextTime(); at < t {
					t = at
				}
			}
			for _, box := range sh.in {
				if box.prevMin < t {
					t = box.prevMin
				}
			}
		}
		if t > deadline {
			break
		}
		end := t.Add(se.lookahead)
		if end > deadline+1 {
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
		if len(active) == 1 {
			// One runnable shard: dispatch inline and skip the barrier.
			active[0].runEpoch(end)
			continue
		}
		wg.Add(len(active))
		for _, sh := range active {
			starts[sh.ID] <- end
		}
		wg.Wait()
	}

	more := false
	for _, sh := range se.shards {
		sh.Eng.AdvanceTo(deadline)
		if sh.Eng.Pending() > 0 {
			more = true
		}
		for _, box := range sh.in {
			if len(box.cur)+len(box.prev) > 0 {
				more = true
			}
		}
	}
	return more
}
