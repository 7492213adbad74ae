package sim

import (
	"cmp"
	"slices"
	"strconv"
)

// Engine is a deterministic discrete-event simulator. Events are scheduled
// at absolute virtual times; ties are broken by scheduling order so that a
// run is a pure function of its inputs and RNG seeds.
//
// Schedule/ScheduleAfter take an Event value. Callers pre-bind their
// handlers (typically a pooled struct or a model object that implements
// Event), so steady-state scheduling performs no heap allocation; cold paths
// and tests wrap a plain function in EventFunc.
//
// The pending-event set is a 4-ary implicit heap ordered by timestamp
// alone. Timestamps are 8-byte keys in their own array, so the four
// children of a heap node share half a cache line and the min-child
// selection is branch-free integer arithmetic — the sift loops execute no
// data-dependent branches, which is where a comparison-based queue spends
// most of its time. FIFO order among equal timestamps is restored at
// dispatch: when the popped root's timestamp still matches the new root,
// the engine drains the whole tie group and sorts it by tie-break key
// before running it: a comparison sort below radixMin entries, and from
// there up a radix sort over only the key bytes that vary, so a wide group
// costs linear time whatever order the heap hands it back in. An
// event scheduled at the batch's own timestamp while the batch runs goes
// into the heap and runs after the whole batch, whatever its key.
//
// Two tie-group shapes matter. One event rescheduling itself with FIFO keys
// comes off the heap reversed; closed-loop ping-pong's synchronised sends
// carry Actor keys from thousands of actors in heap-layout order. At 8,192
// entries per group, on a 2-vCPU Xeon VM, BenchmarkEngineTieGroup measures
// about 60 ns per dispatch for the FIFO shape and 75-90 ns for the actor
// shape. pdqsort took about 55 ns on the FIFO shape, its linear
// reversed-run case, and 186-226 ns on the actor shape, its O(n log n)
// case.
//
// The zero value is not ready to use; call NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	ats  []int64 // heap keys: timestamps, ordered by the 4-ary heap
	ents []entry // parallel payloads: FIFO sequence + event

	// Tie group being dispatched: entries sharing one timestamp, sorted
	// by seq. bi indexes the next entry to dispatch.
	batch   []entry
	batchAt Time
	bi      int

	// Executed counts events dispatched since construction; useful for
	// reporting simulator throughput (events/sec) in benchmarks.
	Executed uint64

	// spare is the radix sort's second buffer for wide tie groups (see
	// radixSort). It trades places with batch on every sort that makes an
	// odd number of passes.
	spare []entry

	// Pads the engine to three full cache lines. The shards of a sharded
	// engine allocate their engines back to back, and each shard's
	// goroutine writes its engine's fields on every dispatch; at 136 bytes
	// neighbouring engines would share a line.
	_ [56]byte
}

// Event is the unit of work. Run is invoked with the engine clock already
// advanced to the event's timestamp; handlers that need the time read
// e.Now(). Implementations that want zero-allocation scheduling keep the
// Event value alive across schedules (a free list, or the model object
// itself).
type Event interface {
	Run(e *Engine)
}

// EventFunc adapts a plain function to Event, for cold paths and tests. A
// func value converts to an interface without allocating, so scheduling a
// prebuilt EventFunc costs what any other event does.
type EventFunc func()

// Run calls f.
func (f EventFunc) Run(*Engine) { f() }

// entry is the payload of one queue slot: the FIFO tie-break and the event.
type entry struct {
	seq uint64
	ev  Event
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{ats: make([]int64, 0, 1024), ents: make([]entry, 0, 1024)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.ats) + len(e.batch) - e.bi }

// Schedule enqueues ev to run at absolute time t.
// Scheduling in the past panics: it is always a model bug and silently
// clamping would corrupt causality.
func (e *Engine) Schedule(t Time, ev Event) {
	if t < e.now {
		panic("sim: event scheduled in the past: " + t.String() + " < " + e.now.String())
	}
	e.seq++
	e.push(int64(t), entry{seq: e.seq, ev: ev})
}

// ScheduleAfter enqueues ev to run d after the current time.
func (e *Engine) ScheduleAfter(d Duration, ev Event) {
	if d < 0 {
		panic("sim: negative delay " + d.String())
	}
	e.Schedule(e.now.Add(d), ev)
}

// ScheduleKey enqueues ev to run at absolute time t with an explicit
// tie-break key: among events sharing a timestamp, dispatch order is
// ascending key. Models that must execute identically regardless of how
// their actors are spread across shards use per-actor key streams
// (see Actor) instead of the engine-global FIFO counter, so the dispatch
// order at every timestamp is a pure function of the model, not of queue
// insertion order.
//
// Keys must be unique among the events pending at one timestamp: two
// events at the same (t, key) have no defined order, so dispatch panics
// when it finds one. Actor key streams guarantee this. Keys share the
// sequence space of Schedule's FIFO counter (below 1<<32, where Actor keys
// start); mixing the two on one engine is safe but only FIFO-deterministic
// for the Schedule side.
//
// A key orders an event only within the tie group it is dispatched with.
// An event scheduled at the current time while that time's group is being
// dispatched runs after the whole group, even if its key is smaller.
func (e *Engine) ScheduleKey(t Time, key uint64, ev Event) {
	if t < e.now {
		panic("sim: event scheduled in the past: " + t.String() + " < " + e.now.String())
	}
	e.push(int64(t), entry{seq: key, ev: ev})
}

// peekAt returns the earliest pending timestamp; callers check Pending()>0.
func (e *Engine) peekAt() Time {
	if e.bi < len(e.batch) {
		return e.batchAt
	}
	return Time(e.ats[0])
}

// next removes and returns the earliest pending event, FIFO among ties;
// its timestamp is the one peekAt reported.
func (e *Engine) next() Event {
	if e.bi < len(e.batch) {
		ev := e.batch[e.bi].ev
		e.batch[e.bi].ev = nil
		e.bi++
		return ev
	}
	at := e.ats[0]
	en := e.pop()
	if len(e.ats) == 0 || e.ats[0] != at {
		return en.ev // sole event at this timestamp
	}
	// Tie group: drain every entry at this timestamp and restore the
	// order of their tie-break keys.
	b := append(e.batch[:0], en)
	for len(e.ats) > 0 && e.ats[0] == at {
		b = append(b, e.pop())
	}
	// Keys are unique within a group (see ScheduleKey), so the sort has one
	// answer whichever algorithm gives it. The narrow groups of open-loop
	// traffic stay on the comparison sort, inline here: behind a call they
	// cost fault_campaign about 8% of its wall time.
	if len(b) < radixMin {
		slices.SortFunc(b, func(x, y entry) int { return cmp.Compare(x.seq, y.seq) })
	} else {
		b, e.spare = radixSort(b, e.spare)
	}
	for i := 1; i < len(b); i++ {
		if b[i].seq == b[i-1].seq {
			panic("sim: duplicate tie-break key " + strconv.FormatUint(b[i].seq, 10) + " at " + Time(at).String())
		}
	}
	ev := b[0].ev
	b[0].ev = nil
	e.batch, e.batchAt, e.bi = b, Time(at), 1
	return ev
}

// radixMin is the narrowest tie group next radix-sorts. Narrower groups
// cost more in the radix sort's fixed per-pass work (clearing and summing
// 256 counts) than a comparison sort spends on them. On permuted
// Actor-keyed groups the radix sort won from 48 entries and lost at 32
// (about 75 against 85 ns per dispatch at 48, 86 against 65 at 32).
const radixMin = 48

// radixSort sorts a tie group by key and returns the sorted entries with
// the buffer left over. It ping-pongs between b and spare, which grows to
// b's capacity the first time and is reused after that; the leftover
// buffer is cleared so it does not keep dispatched events alive.
//
// The sort is least-significant digit first, on 8-bit digits, and skips
// every digit on which all keys of the group agree. Actor keys hold the
// actor id in the high 32 bits and a per-actor counter in the low 32, so a
// group of a few thousand actors needs three to five passes, not eight.
func radixSort(b, spare []entry) (sorted, left []entry) {
	and, or := ^uint64(0), uint64(0)
	for i := range b {
		and &= b[i].seq
		or |= b[i].seq
	}
	vary := and ^ or
	if cap(spare) < len(b) {
		spare = make([]entry, 0, cap(b))
	}
	src, dst := b, spare[:len(b)]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(vary>>shift) == 0 {
			continue
		}
		var count [256]int
		for i := range src {
			count[byte(src[i].seq>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := byte(src[i].seq >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	clear(dst)
	return src, dst[:0]
}

// dispatch runs every pending event with timestamp <= last, including
// those the running events schedule, and leaves later events queued. It is
// the one dispatch loop behind Run, RunUntil and RunBefore.
func (e *Engine) dispatch(last Time) {
	for e.Pending() > 0 {
		at := e.peekAt()
		if at > last {
			return
		}
		ev := e.next()
		e.now = at
		e.Executed++
		ev.Run(e)
	}
}

// Run dispatches events until the queue drains. It returns the final
// virtual time.
func (e *Engine) Run() Time {
	e.dispatch(maxTime)
	e.shrinkIfDrained()
	return e.now
}

// RunUntil dispatches events with timestamps <= deadline, leaving later
// events queued, and advances the clock to exactly the deadline. It returns
// true if the queue still holds events (i.e. the simulation was cut short).
func (e *Engine) RunUntil(deadline Time) bool {
	e.dispatch(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	e.shrinkIfDrained()
	return e.Pending() > 0
}

// RunBefore dispatches every event with timestamp strictly less than end,
// leaving later events queued. Unlike RunUntil it does not advance the clock
// to end when the queue drains early: the sharded engine owns the final
// clock advance (AdvanceTo) so a shard that goes idle mid-epoch can still
// accept mailbox deliveries timestamped inside the epoch.
func (e *Engine) RunBefore(end Time) { e.dispatch(end - 1) }

// NextTime returns the earliest pending timestamp. Callers must check
// Pending() > 0 first.
func (e *Engine) NextTime() Time { return e.peekAt() }

// AdvanceTo moves the clock forward to t if it is not already past it.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// shrinkIfDrained releases oversized queue and tie-group arrays once the
// run has drained, so a burst (e.g. a saturation experiment) does not pin
// its high-water-mark memory for the life of the engine. Run and RunUntil
// call it, and ShardedEngine.RunUntil calls it for every shard once all of
// them have drained.
func (e *Engine) shrinkIfDrained() {
	if e.Pending() > 0 {
		return
	}
	if cap(e.ats) > 4096 {
		e.ats = make([]int64, 0, 1024)
		e.ents = make([]entry, 0, 1024)
	}
	if cap(e.batch) > 256 {
		e.batch, e.bi = nil, 0
	}
	if cap(e.spare) > 256 {
		e.spare = nil
	}
}

// --- 4-ary implicit heap ---
//
// Children of node i are 4i+1..4i+4; the parent of i is (i-1)/4. Both sift
// directions move a hole instead of swapping, and the sift-down selects the
// minimum child with sign-mask arithmetic instead of compare branches.

func (e *Engine) push(at int64, en entry) {
	ks := append(e.ats, at)
	vs := append(e.ents, en)
	i := len(ks) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if ks[p] <= at {
			break
		}
		ks[i] = ks[p]
		vs[i] = vs[p]
		i = p
	}
	ks[i] = at
	vs[i] = en
	e.ats = ks
	e.ents = vs
}

// pop removes the root (an earliest-timestamp entry; FIFO among ties is the
// caller's job) and re-establishes the heap.
func (e *Engine) pop() entry {
	ks, vs := e.ats, e.ents
	top := vs[0]
	n := len(ks) - 1
	at, en := ks[n], vs[n]
	vs[n] = entry{} // release the Event reference for GC
	ks, vs = ks[:n], vs[:n]
	e.ats, e.ents = ks, vs
	if n == 0 {
		return top
	}

	// Sift the displaced last entry down from the root hole.
	i := 0
	for {
		c := i<<2 + 1
		if c+3 < n {
			// Branch-free min of the four children: tournament of
			// sign-mask selects (timestamps differ by < 2^62, so the
			// subtractions cannot overflow).
			a0, a1, a2, a3 := ks[c], ks[c+1], ks[c+2], ks[c+3]
			d01 := a1 - a0
			m01 := d01 >> 63 // all ones iff a1 < a0
			k01 := a0 + d01&m01
			i01 := c - int(m01)
			d23 := a3 - a2
			m23 := d23 >> 63
			k23 := a2 + d23&m23
			i23 := c + 2 - int(m23)
			d := k23 - k01
			m := d >> 63
			mk := k01 + d&m
			min := i01 ^ (i01^i23)&int(m)
			if at <= mk {
				break
			}
			ks[i] = mk
			vs[i] = vs[min]
			i = min
			continue
		}
		// Partial last group (0-3 children).
		if c >= n {
			break
		}
		min, mk := c, ks[c]
		for j := c + 1; j < n; j++ {
			if ks[j] < mk {
				min, mk = j, ks[j]
			}
		}
		if at <= mk {
			break
		}
		ks[i] = mk
		vs[i] = vs[min]
		i = min
	}
	ks[i] = at
	vs[i] = en
	return top
}
