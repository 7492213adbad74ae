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
// alone, over two parallel arrays: ats holds the 8-byte timestamps, so the
// four children of a heap node share half a cache line and the min-child
// selection is branch-free integer arithmetic, and hs holds, at the same
// index, the 4-byte slot of the entry's event in the event table. The
// table (slots) is where the events live: Schedule writes an event and its
// tie-break key into a free slot once, and dispatch clears the slot once
// and threads it onto a free chain through the key field, so the table
// costs no side array. Neither heap array holds a pointer, so a sift step
// stores no pointer and pays no GC write barrier, and the collector does
// not scan the heap. While the GC is marking, every pointer store takes the
// barrier; the models recycle their packets (netsim.PacketPool), so after
// its warm-up a run allocates little and the GC marks rarely (`figures
// -exp fig6 -scale medium` collects 55 times, against 403 when every send
// allocated), but a run that grows its heap still marks. When every send
// still allocated and the heap carried 24-byte {key, event} entries, a CPU
// profile of `figures -exp fig6 -scale medium` (2-vCPU Xeon VM) put 45% of
// 37.0 CPU-s in the kernel (pop 32.7% cumulative) and 9.4% in write
// barriers, 81% of them from push and pop. With slot payloads and the
// vacant root below, the same run spends 35% of 34.8 CPU-s in the kernel
// (siftDown 20.0%) and 5.5% in write barriers, none of them in push, pop
// or siftDown (TestHeapHasNoWriteBarriers).
//
// When the popped root has no tie, none of its children shares its
// timestamp, and the engine leaves the root vacant instead of moving the
// last leaf there and sifting it the full depth. The handler's first
// Schedule fills the vacancy and sifts down from the root, so a
// near-future event, the common case, stops after a few levels. If the
// handler schedules nothing, the next peek refills the root from the last
// leaf as a plain pop would.
//
// FIFO order among equal timestamps is restored at dispatch: when the
// popped root's timestamp still matches a child, the engine drains the
// whole tie group into a batch of {key, slot} pairs and sorts it by key
// before running it: a comparison sort below radixMin entries, and from
// there up a radix sort over only the key bytes that vary, so a wide group
// costs linear time whatever order the heap hands it back in. An event
// scheduled at the batch's own timestamp while the batch runs goes into
// the heap and runs after the whole batch, whatever its key. The heap
// orders by time only and every group is drained whole, so neither the
// heap's layout nor the vacant root can change the dispatch order.
//
// Two tie-group shapes matter. One event rescheduling itself with FIFO keys
// comes off the heap reversed; closed-loop ping-pong's synchronised sends
// carry Actor keys from thousands of actors in heap-layout order. At 8,192
// entries per group, on a 2-vCPU Xeon VM, BenchmarkEngineTieGroup measures
// about 35-55 ns per dispatch for the FIFO shape and 50-80 ns for the
// actor shape, the spread being the host's load. When batches held
// 24-byte {key, event} entries the radix sort measured about 60 and 75-90
// ns, and pdqsort about 55 ns on the FIFO shape, its linear reversed-run
// case, and 186-226 ns on the actor shape, its O(n log n) case.
//
// The zero value is not ready to use; call NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	ats   []int64  // heap keys: timestamps, ordered by the 4-ary heap
	hs    []uint32 // heap payloads: the slot of each entry's event
	slots []slot   // event table, indexed by slot
	free  uint32   // 1 + the first free slot of the chain, 0 if none
	// vacant: the heap's root is empty (see the type comment); ats[0] and
	// hs[0] hold nothing, and the other entries form a valid heap.
	vacant bool

	// Tie group being dispatched: entries sharing one timestamp, sorted
	// by key. bi indexes the next entry to dispatch.
	batch   []tie
	batchAt Time
	bi      int

	// Executed counts events dispatched since construction; useful for
	// reporting simulator throughput (events/sec) in benchmarks.
	Executed uint64

	// spare is the radix sort's second buffer for wide tie groups (see
	// radixSort). It trades places with batch on every sort that makes an
	// odd number of passes.
	spare []tie

	// Pads the engine to three full cache lines. The shards of a sharded
	// engine allocate their engines back to back, and each shard's
	// goroutine writes its engine's fields on every dispatch; at 168 bytes
	// neighbouring engines would share a line.
	_ [24]byte
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

// slot is one entry of the event table. A pending event's slot holds the
// event and its tie-break key; a free slot holds no event, and its key
// links the free chain: 1 + the next free slot, 0 at the chain's end.
type slot struct {
	ev  Event
	key uint64
}

// tie is one entry of a tie group: an event's tie-break key and its slot.
type tie struct {
	key  uint64
	slot uint32
}

// initCap is the capacity NewEngine gives the heap arrays and the event
// table, and the one shrinkIfDrained returns them to.
const initCap = 512

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	e := &Engine{}
	e.initTables()
	return e
}

// initTables gives the engine empty heap arrays and an empty event table
// of capacity initCap.
func (e *Engine) initTables() {
	e.ats = make([]int64, 0, initCap)
	e.hs = make([]uint32, 0, initCap)
	e.slots = make([]slot, 0, initCap)
	e.free = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int {
	n := len(e.ats) + len(e.batch) - e.bi
	if e.vacant {
		n--
	}
	return n
}

// Schedule enqueues ev to run at absolute time t.
// Scheduling in the past panics: it is always a model bug and silently
// clamping would corrupt causality.
func (e *Engine) Schedule(t Time, ev Event) {
	if t < e.now {
		panic("sim: event scheduled in the past: " + t.String() + " < " + e.now.String())
	}
	e.seq++
	e.push(int64(t), e.store(e.seq, ev))
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
	e.push(int64(t), e.store(key, ev))
}

// store writes ev and its key into a free slot of the event table and
// returns the slot.
func (e *Engine) store(key uint64, ev Event) uint32 {
	s := e.free
	if s == 0 {
		if len(e.slots) == cap(e.slots) {
			e.slots = double(e.slots)
		}
		e.slots = append(e.slots, slot{ev: ev, key: key})
		return uint32(len(e.slots) - 1)
	}
	s--
	e.free = uint32(e.slots[s].key)
	e.slots[s] = slot{ev: ev, key: key}
	return s
}

// take returns the event in slot s, clears the slot and puts it at the
// head of the free chain.
func (e *Engine) take(s uint32) Event {
	ev := e.slots[s].ev
	e.slots[s] = slot{key: uint64(e.free)}
	e.free = s + 1
	return ev
}

// peekAt returns the earliest pending timestamp, or false if no event is
// pending. It refills a vacant root first.
func (e *Engine) peekAt() (Time, bool) {
	if e.bi < len(e.batch) {
		return e.batchAt, true
	}
	if e.vacant {
		e.vacant = false
		e.pop()
	}
	if len(e.ats) == 0 {
		return 0, false
	}
	return Time(e.ats[0]), true
}

// next removes and returns the earliest pending event, FIFO among ties;
// its timestamp is the one peekAt reported, and peekAt ran since the last
// call.
func (e *Engine) next() Event {
	if e.bi < len(e.batch) {
		s := e.batch[e.bi].slot
		e.bi++
		return e.take(s)
	}
	ks := e.ats
	at := ks[0]
	// The root's children hold the smallest timestamps after its own, so
	// the root is alone at its time unless a child shares it.
	tied := false
	if len(ks) > 4 {
		tied = min(ks[1], ks[2], ks[3], ks[4]) == at
	} else {
		for _, k := range ks[1:] {
			tied = tied || k == at
		}
	}
	if !tied {
		e.vacant = true
		return e.take(e.hs[0])
	}
	// Tie group: drain every entry at this timestamp and restore the
	// order of their tie-break keys.
	e.batch = e.batch[:0]
	for len(e.ats) > 0 && e.ats[0] == at {
		s := e.pop()
		e.batch = append(e.batch, tie{key: e.slots[s].key, slot: s})
	}
	// Keys are unique within a group (see ScheduleKey), so the sort has one
	// answer whichever algorithm gives it. The narrow groups of open-loop
	// traffic stay on the comparison sort, inline here: behind a call they
	// cost fault_campaign about 8% of its wall time.
	b := e.batch
	if len(b) < radixMin {
		slices.SortFunc(b, func(x, y tie) int { return cmp.Compare(x.key, y.key) })
	} else {
		b, e.spare = radixSort(b, e.spare)
		e.batch = b
	}
	for i := 1; i < len(b); i++ {
		if b[i].key == b[i-1].key {
			panic("sim: duplicate tie-break key " + strconv.FormatUint(b[i].key, 10) + " at " + Time(at).String())
		}
	}
	e.batchAt, e.bi = Time(at), 1
	return e.take(b[0].slot)
}

// radixMin is the narrowest tie group next radix-sorts. Narrower groups
// cost more in the radix sort's fixed per-pass work (clearing and summing
// 256 counts) than a comparison sort spends on them. On permuted
// Actor-keyed groups the radix sort won from 48 entries and lost at 32
// (about 75 against 85 ns per dispatch at 48, 86 against 65 at 32).
const radixMin = 48

// radixSort sorts a tie group by key and returns the sorted entries with
// the buffer left over. It ping-pongs between b and spare, which grows to
// b's capacity the first time and is reused after that.
//
// The sort is least-significant digit first, on 8-bit digits, and skips
// every digit on which all keys of the group agree. Actor keys hold the
// actor id in the high 32 bits and a per-actor counter in the low 32, so a
// group of a few thousand actors needs three to five passes, not eight.
func radixSort(b, spare []tie) (sorted, left []tie) {
	and, or := ^uint64(0), uint64(0)
	for i := range b {
		and &= b[i].key
		or |= b[i].key
	}
	vary := and ^ or
	if cap(spare) < len(b) {
		spare = make([]tie, 0, cap(b))
	}
	src, dst := b, spare[:len(b)]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(vary>>shift) == 0 {
			continue
		}
		var count [256]int
		for i := range src {
			count[byte(src[i].key>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := byte(src[i].key >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	return src, dst[:0]
}

// dispatch runs every pending event with timestamp <= last, including
// those the running events schedule, and leaves later events queued. It is
// the one dispatch loop behind Run, RunUntil and RunBefore.
func (e *Engine) dispatch(last Time) {
	for {
		at, ok := e.peekAt()
		if !ok || at > last {
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
func (e *Engine) NextTime() Time {
	at, _ := e.peekAt()
	return at
}

// AdvanceTo moves the clock forward to t if it is not already past it.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// shrinkIfDrained releases an oversized heap, event table and tie-group
// arrays once the run has drained, so a burst (e.g. a saturation
// experiment) does not pin its high-water-mark memory for the life of the
// engine. Run and RunUntil call it, and ShardedEngine.RunUntil calls it for
// every shard once all of them have drained.
func (e *Engine) shrinkIfDrained() {
	if e.Pending() > 0 {
		return
	}
	// A drained heap is empty or holds only a vacant root.
	e.ats, e.hs, e.vacant = e.ats[:0], e.hs[:0], false
	if cap(e.ats) > 4096 || cap(e.slots) > 4096 {
		e.initTables()
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
// minimum child with sign-mask arithmetic instead of compare branches. The
// heap arrays are resliced and appended to in place (e.ats = e.ats[:n]),
// never assigned from a local slice header: such an assignment stores the
// array pointer, and the compiler puts a write barrier on it.

// push adds the entry (at, s): into a vacant root, sifting down, or as a
// new leaf, sifting up.
func (e *Engine) push(at int64, s uint32) {
	if e.vacant {
		e.vacant = false
		e.siftDown(at, s)
		return
	}
	i := len(e.ats)
	if i == cap(e.ats) || i == cap(e.hs) {
		e.grow()
	}
	e.ats = e.ats[:i+1]
	e.hs = e.hs[:i+1]
	ks, vs := e.ats, e.hs
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
	vs[i] = s
}

// grow makes room for more heap entries. It is push's slow path, kept out
// of push because storing a new array pointer takes a write barrier.
func (e *Engine) grow() {
	e.ats = double(e.ats)
	e.hs = double(e.hs)
}

// double returns s with its capacity at least doubled. The engine's tables
// grow by doubling, not by append's 1.25x steps for large slices: a burst
// that grows a table to n entries then leaves about n entries of old
// arrays for the collector instead of 4n. A 131,072-node run builds its
// network, reaches its GC goal, and then never collects again, so every
// old array stays resident until the run ends.
func double[S ~[]E, E any](s S) S {
	return slices.Grow(s, max(len(s), 1))
}

// pop removes the root (an earliest-timestamp entry; FIFO among ties is the
// caller's job), moves the last leaf into its place and sifts it down. It
// returns the root's slot.
func (e *Engine) pop() uint32 {
	top := e.hs[0]
	n := len(e.ats) - 1
	at, s := e.ats[n], e.hs[n]
	e.ats = e.ats[:n]
	e.hs = e.hs[:n]
	if n > 0 {
		e.siftDown(at, s)
	}
	return top
}

// siftDown places (at, s) at the root, whose old entry is gone, and sifts
// it down to restore the heap.
func (e *Engine) siftDown(at int64, s uint32) {
	ks, vs := e.ats, e.hs
	n := len(ks)
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
	vs[i] = s
}
