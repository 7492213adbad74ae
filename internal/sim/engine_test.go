package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, EventFunc(func() { got = append(got, 3) }))
	e.Schedule(10, EventFunc(func() { got = append(got, 1) }))
	e.Schedule(20, EventFunc(func() { got = append(got, 2) }))
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %v, want 30ps", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("dispatch order = %v, want [1 2 3]", got)
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, EventFunc(func() { got = append(got, i) }))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events dispatched out of order at %d: %v", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired int
	var recurse func()
	recurse = func() {
		fired++
		if fired < 10 {
			e.ScheduleAfter(7, EventFunc(recurse))
		}
	}
	e.Schedule(0, EventFunc(recurse))
	end := e.Run()
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
	if end != 63 {
		t.Errorf("end = %v, want 63ps", end)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, EventFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, EventFunc(func() {}))
	}))
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.ScheduleAfter(-1, EventFunc(func() {}))
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*10), EventFunc(func() { count++ }))
	}
	more := e.RunUntil(55)
	if !more {
		t.Error("RunUntil reported drained queue with events left")
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 55 {
		t.Errorf("now = %v, want 55ps", e.Now())
	}
	more = e.RunUntil(1000)
	if more {
		t.Error("RunUntil reported pending events after drain")
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 1000 {
		t.Errorf("now = %v, want clock advanced to deadline", e.Now())
	}
}

func TestEngineMonotoneDispatchProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), EventFunc(func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			}))
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 42; i++ {
		e.Schedule(Time(i), EventFunc(func() {}))
	}
	e.Run()
	if e.Executed != 42 {
		t.Errorf("Executed = %d, want 42", e.Executed)
	}
}

// TestEngineFIFOStress hammers the equal-time tie path with interleaved
// EventFunc and typed-struct events: many events collapse onto few distinct
// timestamps, events reschedule onto the time currently being dispatched, and
// the engine must still dispatch every tie group in exact scheduling order
// despite the tie-batch drain in the heap.
func TestEngineFIFOStress(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(7)
	var got []rec
	seq := 0
	schedule := func(t Time) {
		s := seq
		seq++
		if s%2 == 0 {
			e.Schedule(t, EventFunc(func() { got = append(got, rec{e.Now(), s}) }))
		} else {
			e.Schedule(t, recEvent{&got, s})
		}
	}
	// Phase 1: 2000 events over only 8 distinct times, both event kinds.
	for i := 0; i < 2000; i++ {
		schedule(Time(rng.Intn(8)))
	}
	// Phase 2: events that reschedule onto their own dispatch time (the new
	// event must run after every already-queued event at that time).
	for i := 0; i < 50; i++ {
		at := Time(10 + rng.Intn(4))
		s := seq
		seq++
		e.Schedule(at, EventFunc(func() {
			got = append(got, rec{e.Now(), s})
			s2 := seq
			seq++
			e.Schedule(at, recEvent{&got, s2})
		}))
	}
	e.Run()
	if len(got) != seq {
		t.Fatalf("dispatched %d events, scheduled %d", len(got), seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("time went backwards at %d: %+v after %+v", i, got[i], got[i-1])
		}
		if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
			t.Fatalf("FIFO violated within tie group at %d: seq %d after %d (t=%v)",
				i, got[i].seq, got[i-1].seq, got[i].at)
		}
	}
}

// TestEventFuncSchedulesWithoutAllocating pins the cost of the EventFunc
// adapter: scheduling and dispatching a prebuilt EventFunc allocates nothing
// (a func value fits an interface without boxing).
func TestEventFuncSchedulesWithoutAllocating(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := EventFunc(func() { n++ })
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleAfter(1, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("EventFunc schedule+dispatch allocated %.1f times per run, want 0", allocs)
	}
	if n != 1001 {
		t.Errorf("dispatched %d events, want 1001 (one warm-up run plus 1000)", n)
	}
}

// TestEngineFillsWholeCacheLines pins the engine's size to whole 64-byte
// lines. A sharded engine's shards allocate their engines back to back and
// write them on every dispatch, so a size that is not a multiple of 64 puts
// two shards' hot fields on one line: a 112-byte engine made the 128K-node
// K=2 benchmark about 10% slower.
func TestEngineFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n%64 != 0 {
		t.Errorf("sizeof(Engine) = %d, want a multiple of 64 (adjust the padding)", n)
	}
}

type rec struct {
	at  Time
	seq int
}

type recEvent struct {
	got *[]rec
	seq int
}

func (r recEvent) Run(e *Engine) {
	*r.got = append(*r.got, rec{e.Now(), r.seq})
}

// wideTie drives TestEngineWideTieGroupOrder. It mirrors the engine's FIFO
// counter, so the test knows every event's tie-break key without asking
// the engine.
type wideTie struct {
	e     *Engine
	fifo  uint64
	child Actor // key stream for ScheduleKey events spawned during a batch
	got   []uint64
}

// wideEvent records its key when it runs; spawn 1 or 2 makes it schedule
// one more event at its own timestamp, through Schedule or ScheduleKey.
type wideEvent struct {
	w     *wideTie
	key   uint64
	spawn int
}

func (w *wideTie) schedule(at Time, ev *wideEvent) {
	w.fifo++
	ev.key = w.fifo
	w.e.Schedule(at, ev)
}

func (ev *wideEvent) Run(e *Engine) {
	ev.w.got = append(ev.w.got, ev.key)
	child := &wideEvent{w: ev.w}
	switch ev.spawn {
	case 1:
		ev.w.schedule(e.Now(), child)
	case 2:
		child.key = ev.w.child.Next()
		e.ScheduleKey(e.Now(), child.key, child)
	}
}

// TestEngineWideTieGroupOrder checks dispatch order inside tie groups from
// 1 to 8,192 entries. Each group mixes FIFO Schedule keys with keys from
// many Actors, pushed in ascending, descending or shuffled key order, next
// to events at other timestamps. Some events schedule one more event at
// their own timestamp while the batch runs, through Schedule or through
// ScheduleKey with keys smaller than most of the group's. The group must
// run in ascending key order, then the events added during the batch, in
// ascending key order among themselves.
func TestEngineWideTieGroupOrder(t *testing.T) {
	const at = Time(100)
	for _, n := range []int{1, 12, 13, 1000, 8192} {
		for _, order := range []string{"ascending", "descending", "shuffled"} {
			t.Run(fmt.Sprintf("%d/%s", n, order), func(t *testing.T) {
				w := &wideTie{e: NewEngine(), child: MakeActor(1)}
				rng := NewRNG(uint64(n))
				w.schedule(at-1, &wideEvent{w: w})

				// Every third event takes a FIFO key at push time; the rest
				// draw from 37 actors (ids 2..38, above the child stream).
				actors := make([]Actor, 37)
				for i := range actors {
					actors[i] = MakeActor(uint32(i + 2))
				}
				var keyed, fifo []*wideEvent
				for i := 0; i < n; i++ {
					ev := &wideEvent{w: w, spawn: []int{0, 1, 0, 2, 0, 0, 0}[i%7]}
					if i%3 == 0 {
						fifo = append(fifo, ev)
						continue
					}
					ev.key = actors[rng.Intn(len(actors))].Next()
					keyed = append(keyed, ev)
				}
				switch order {
				case "ascending":
					slices.SortFunc(keyed, func(a, b *wideEvent) int { return cmp.Compare(a.key, b.key) })
				case "descending":
					slices.SortFunc(keyed, func(a, b *wideEvent) int { return cmp.Compare(b.key, a.key) })
				case "shuffled":
					idx := make([]int, len(keyed))
					rng.Perm(idx)
					shuffled := make([]*wideEvent, len(keyed))
					for i, j := range idx {
						shuffled[i] = keyed[j]
					}
					keyed = shuffled
				}
				group := make([]*wideEvent, 0, n)
				for len(keyed)+len(fifo) > 0 {
					if len(fifo) > 0 && (len(keyed) == 0 || rng.Intn(3) == 0) {
						w.schedule(at, fifo[0])
						group, fifo = append(group, fifo[0]), fifo[1:]
						continue
					}
					w.e.ScheduleKey(at, keyed[0].key, keyed[0])
					group, keyed = append(group, keyed[0]), keyed[1:]
				}
				w.schedule(at+1, &wideEvent{w: w})

				// Reference: the group by key, then what it spawned by key.
				slices.SortFunc(group, func(a, b *wideEvent) int { return cmp.Compare(a.key, b.key) })
				nextFIFO, nextChild := w.fifo, MakeActor(1)
				var want, spawned []uint64
				for _, ev := range group {
					want = append(want, ev.key)
					switch ev.spawn {
					case 1:
						nextFIFO++
						spawned = append(spawned, nextFIFO)
					case 2:
						spawned = append(spawned, nextChild.Next())
					}
				}
				slices.Sort(spawned)
				want = append(want, spawned...)

				w.e.Run()
				if len(w.got) != len(want)+2 {
					t.Fatalf("dispatched %d events, want %d", len(w.got), len(want)+2)
				}
				got := w.got[1 : len(w.got)-1]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("dispatch %d at t=%v: key %#x, want %#x", i, at, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestEngineDuplicateTieKeyPanics: two events at the same (t, key) have no
// defined order, so dispatch refuses them instead of running them in heap
// layout order.
func TestEngineDuplicateTieKeyPanics(t *testing.T) {
	e := NewEngine()
	a := MakeActor(3)
	key := a.Next()
	e.ScheduleKey(5, a.Next(), EventFunc(func() {}))
	e.ScheduleKey(5, key, EventFunc(func() {}))
	e.ScheduleKey(5, key, EventFunc(func() {}))
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "sim: duplicate tie-break key") {
			t.Fatalf("recovered %v, want a duplicate tie-break key panic", r)
		}
	}()
	e.Run()
	t.Fatal("Run dispatched a duplicate tie-break key without panicking")
}

// TestEngineWideDuplicateTieKeyPanics is the duplicate-key check on a tie
// group wide enough for the radix sort.
func TestEngineWideDuplicateTieKeyPanics(t *testing.T) {
	e := NewEngine()
	var keys []uint64
	for i := 0; i < radixMin+10; i++ {
		a := MakeActor(uint32(i + 1))
		keys = append(keys, a.Next())
	}
	keys = append(keys, keys[radixMin/2])
	for _, k := range keys {
		e.ScheduleKey(5, k, EventFunc(func() {}))
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "sim: duplicate tie-break key") {
			t.Fatalf("recovered %v, want a duplicate tie-break key panic", r)
		}
	}()
	e.Run()
	t.Fatal("Run dispatched a duplicate tie-break key without panicking")
}

// idEvent is an Event that compares by value, so a test can check which
// event an entry carries.
type idEvent int

func (idEvent) Run(*Engine) {}

// TestRadixSortMatchesComparisonSort checks radixSort against
// slices.SortFunc on random groups either side of radixMin and at 8,192
// entries, reusing the returned spare buffer from one group to the next as
// the engine does. Key sets: FIFO keys below 2^32 mixed with Actor keys whose ids reach 2^31,
// and keys that differ only in the top byte or only in the low byte (at
// most 256 entries: keys are unique).
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	rng := NewRNG(7)
	keySets := map[string]func(n int) []uint64{
		"mixed": func(n int) []uint64 {
			seen := map[uint64]bool{}
			var keys []uint64
			for len(keys) < n {
				k := uint64(rng.Intn(1 << 32))
				if rng.Intn(2) == 0 {
					k = uint64(MakeActor(uint32(1+rng.Intn(1<<31)))) + uint64(rng.Intn(1<<20))
				}
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			return keys
		},
		"top-byte": func(n int) []uint64 {
			base := uint64(rng.Intn(1 << 32))
			keys := make([]uint64, min(n, 256))
			for i := range keys {
				keys[i] = base | uint64(i)<<56
			}
			return keys
		},
		"low-byte": func(n int) []uint64 {
			base := uint64(MakeActor(uint32(1 + rng.Intn(1<<31))))
			keys := make([]uint64, min(n, 256))
			for i := range keys {
				keys[i] = base | uint64(i)
			}
			return keys
		},
	}
	var spare []entry
	for _, n := range []int{radixMin - 1, radixMin, radixMin + 1, 8192} {
		for _, name := range []string{"mixed", "top-byte", "low-byte"} {
			keys := keySets[name](n)
			idx := make([]int, len(keys))
			rng.Perm(idx)
			b := make([]entry, len(keys))
			for i, j := range idx {
				b[i] = entry{seq: keys[j], ev: idEvent(j)}
			}
			want := slices.Clone(b)
			slices.SortFunc(want, func(x, y entry) int { return cmp.Compare(x.seq, y.seq) })
			var got []entry
			got, spare = radixSort(b, spare)
			if !slices.Equal(got, want) {
				t.Fatalf("%d/%s: radixSort disagrees with slices.SortFunc", n, name)
			}
			if len(spare) != 0 || slices.ContainsFunc(spare[:cap(spare)], func(en entry) bool { return en.ev != nil }) {
				t.Fatalf("%d/%s: the leftover buffer has length %d or still holds events", n, name, len(spare))
			}
		}
	}
}
