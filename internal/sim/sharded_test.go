package sim

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// tactor is a test actor: it hashes the times and order of every event it
// executes, so two runs agree iff every actor saw the same events in the
// same order.
type tactor struct {
	id   int
	sh   *Shard
	act  Actor
	hash uint64
	runs int
	// trace, when non-nil, is the actor's shard's dispatch log: one
	// (time, actor) entry per event, in the shard's dispatch order.
	trace *[]uint64
}

// token bounces between actors with delays >= the lookahead, carrying its
// own RNG so delay draws are a function of the token, not the shard layout.
type token struct {
	actors []*tactor
	at     int
	hops   int
	rng    *RNG
}

func (tk *token) Run(e *Engine) {
	a := tk.actors[tk.at]
	a.hash = a.hash*1099511628211 ^ uint64(e.Now()) ^ uint64(a.runs)
	a.runs++
	if a.trace != nil {
		*a.trace = append(*a.trace, uint64(e.Now())<<8|uint64(a.id))
	}
	if tk.hops == 0 {
		return
	}
	tk.hops--
	tk.at = (tk.at + 1 + tk.rng.Intn(len(tk.actors)-1)) % len(tk.actors)
	next := tk.actors[tk.at]
	// Delay is lookahead plus a sometimes-zero jitter, so epochs regularly
	// see boundary-exact handoffs and same-time ties.
	d := Duration(100*Nanosecond) + Duration(tk.rng.Intn(3))*Duration(50*Nanosecond)
	a.sh.Post(next.sh, e.Now().Add(d), a.act.Next(), tk)
}

// runTokenRing executes the token model on k shards and returns the
// per-actor (hash, runs) observations plus total executed events.
func runTokenRing(k, nActors, nTokens, hops int, deadline Time) ([]uint64, []int, uint64) {
	se := NewShardedEngine(k, Duration(100*Nanosecond))
	actors := make([]*tactor, nActors)
	for i := range actors {
		sh := se.Shard(i % k)
		actors[i] = &tactor{id: i, sh: sh, act: MakeActor(uint32(i + 1))}
	}
	for j := 0; j < nTokens; j++ {
		a := actors[j%nActors]
		tk := &token{actors: actors, at: j % nActors, hops: hops, rng: NewRNG(uint64(j + 1))}
		a.sh.Eng.ScheduleKey(0, a.act.Next(), tk)
	}
	se.RunUntil(deadline)
	hashes := make([]uint64, nActors)
	runs := make([]int, nActors)
	for i, a := range actors {
		hashes[i] = a.hash
		runs[i] = a.runs
	}
	return hashes, runs, se.Executed()
}

func TestShardedMatchesSerial(t *testing.T) {
	deadline := Time(1 * Millisecond)
	refHash, refRuns, refExec := runTokenRing(1, 13, 9, 400, deadline)
	if refExec == 0 {
		t.Fatal("reference run executed nothing")
	}
	for _, k := range []int{2, 3, 4, 8} {
		hash, runs, exec := runTokenRing(k, 13, 9, 400, deadline)
		if exec != refExec {
			t.Errorf("k=%d: executed %d events, serial executed %d", k, exec, refExec)
		}
		for i := range refHash {
			if hash[i] != refHash[i] || runs[i] != refRuns[i] {
				t.Errorf("k=%d actor %d: (hash,runs)=(%x,%d), serial (%x,%d)",
					k, i, hash[i], runs[i], refHash[i], refRuns[i])
			}
		}
	}
}

func TestShardedRunUntilResume(t *testing.T) {
	// Splitting a run at an arbitrary deadline must not change the outcome.
	full, fullRuns, fullExec := runTokenRing(4, 7, 5, 200, Time(1*Millisecond))

	se := NewShardedEngine(4, Duration(100*Nanosecond))
	actors := make([]*tactor, 7)
	for i := range actors {
		actors[i] = &tactor{id: i, sh: se.Shard(i % 4), act: MakeActor(uint32(i + 1))}
	}
	for j := 0; j < 5; j++ {
		a := actors[j%7]
		tk := &token{actors: actors, at: j % 7, hops: 200, rng: NewRNG(uint64(j + 1))}
		a.sh.Eng.ScheduleKey(0, a.act.Next(), tk)
	}
	if more := se.RunUntil(Time(3 * Microsecond)); !more {
		t.Fatal("expected events past the mid-run deadline")
	}
	for i := 0; i < 4; i++ {
		if now := se.Shard(i).Eng.Now(); now != Time(3*Microsecond) {
			t.Fatalf("shard %d clock = %v after RunUntil, want 3us", i, now)
		}
	}
	se.RunUntil(Time(1 * Millisecond))
	if got := se.Executed(); got != fullExec {
		t.Errorf("split run executed %d, one-shot %d", got, fullExec)
	}
	for i, a := range actors {
		if a.hash != full[i] || a.runs != fullRuns[i] {
			t.Errorf("actor %d: split (%x,%d), one-shot (%x,%d)", i, a.hash, a.runs, full[i], fullRuns[i])
		}
	}
}

// violator posts cross-shard with zero delay, inside the current epoch.
type violator struct {
	from, to *Shard
	act      *Actor
}

func (v *violator) Run(e *Engine) {
	v.from.Post(v.to, e.Now(), v.act.Next(), v)
}

func TestLookaheadViolationPanics(t *testing.T) {
	se := NewShardedEngine(2, Duration(100*Nanosecond))
	act := MakeActor(1)
	v := &violator{from: se.Shard(0), to: se.Shard(1), act: &act}
	se.Shard(0).Eng.ScheduleKey(0, act.Next(), v)
	defer func() {
		if recover() == nil {
			t.Error("zero-delay cross-shard post did not panic")
		}
	}()
	// Only shard 0 is runnable, so the epoch executes inline on this
	// goroutine and the panic is recoverable here.
	se.RunUntil(Time(1 * Microsecond))
}

func TestRunBeforeAndAdvanceTo(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.Schedule(Time(10), EventFunc(rec))
	e.Schedule(Time(20), EventFunc(rec))
	e.Schedule(Time(30), EventFunc(rec))
	e.RunBefore(Time(20)) // strictly-less-than semantics
	if len(got) != 1 || got[0] != Time(10) {
		t.Fatalf("RunBefore(20) ran %v, want [10]", got)
	}
	if e.Now() != Time(10) {
		t.Errorf("clock = %v after RunBefore, want 10 (no artificial advance)", e.Now())
	}
	e.AdvanceTo(Time(15))
	if e.Now() != Time(15) {
		t.Errorf("AdvanceTo(15): clock = %v", e.Now())
	}
	e.AdvanceTo(Time(5)) // never moves backwards
	if e.Now() != Time(15) {
		t.Errorf("AdvanceTo(5) moved the clock to %v", e.Now())
	}
	e.RunBefore(Time(31))
	if len(got) != 3 {
		t.Errorf("remaining events not dispatched: %v", got)
	}
}

func TestScheduleKeyOrdersTies(t *testing.T) {
	e := NewEngine()
	var order []int
	mk := func(id int) func() { return func() { order = append(order, id) } }
	// Insert out of key order at one timestamp; dispatch must be by key.
	a1, a2, a3 := MakeActor(1), MakeActor(2), MakeActor(3)
	e.ScheduleKey(Time(100), a3.Next(), EventFunc(mk(3)))
	e.ScheduleKey(Time(100), a1.Next(), EventFunc(mk(1)))
	e.ScheduleKey(Time(100), a2.Next(), EventFunc(mk(2)))
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("dispatch order %v, want [1 2 3]", order)
	}
}

func TestShardedRunUntilMaxTime(t *testing.T) {
	// t+lookahead and deadline+1 used to overflow at the end of time, so a
	// sharded RunUntil(maxTime) spun forever where the serial engine returns.
	for _, events := range []int{0, 3} {
		se := NewShardedEngine(2, Duration(100*Nanosecond))
		ran := 0
		for i := 0; i < events; i++ {
			se.Shard(i%2).Eng.Schedule(Time(i)*Time(Microsecond), EventFunc(func() { ran++ }))
		}
		done := make(chan bool)
		go func() { done <- se.RunUntil(Time(math.MaxInt64)) }()
		select {
		case more := <-done:
			if more || ran != events {
				t.Errorf("%d events: RunUntil(maxTime) ran %d, more=%v", events, ran, more)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d events: RunUntil(maxTime) did not return", events)
		}
	}
}

// setParallelMin sets the inline threshold for the rest of the test.
func setParallelMin(t *testing.T, threshold uint64) {
	saved := parallelMin
	parallelMin = threshold
	t.Cleanup(func() { parallelMin = saved })
}

// shardTraces runs a randomized cross-shard token workload on two shards
// with the inline threshold set to threshold and returns every shard's
// dispatch log plus the engine.
func shardTraces(t *testing.T, threshold uint64, nTokens int) ([][]uint64, *ShardedEngine) {
	setParallelMin(t, threshold)
	const k, nActors = 2, 64
	se := NewShardedEngine(k, Duration(100*Nanosecond))
	traces := make([][]uint64, k)
	actors := make([]*tactor, nActors)
	for i := range actors {
		sh := se.Shard(i % k)
		actors[i] = &tactor{id: i, sh: sh, act: MakeActor(uint32(i + 1)), trace: &traces[sh.ID]}
	}
	rng := NewRNG(7)
	for j := 0; j < nTokens; j++ {
		a := actors[rng.Intn(nActors)]
		tk := &token{actors: actors, at: a.id, hops: 5 + rng.Intn(40), rng: NewRNG(uint64(j + 1))}
		a.sh.Eng.ScheduleKey(Time(rng.Intn(400))*Time(Nanosecond), a.act.Next(), tk)
	}
	se.RunUntil(Time(1 * Millisecond))
	return traces, se
}

func TestShardedInlineMatchesParallel(t *testing.T) {
	// Inline and parallel epochs must dispatch the same events in the same
	// per-shard order, over the same epochs.
	inline, seInline := shardTraces(t, math.MaxUint64, 600)
	parallel, seParallel := shardTraces(t, 0, 600)
	if seInline.ParallelEpochs != 0 {
		t.Errorf("threshold max: %d parallel epochs, want 0", seInline.ParallelEpochs)
	}
	if seParallel.ParallelEpochs == 0 {
		t.Error("threshold 0: no epoch ran in parallel")
	}
	if seInline.Epochs != seParallel.Epochs {
		t.Errorf("epochs: inline %d, parallel %d", seInline.Epochs, seParallel.Epochs)
	}
	for i := range inline {
		if len(inline[i]) == 0 || !slices.Equal(inline[i], parallel[i]) {
			t.Errorf("shard %d: inline and parallel dispatch traces differ (%d vs %d events)",
				i, len(inline[i]), len(parallel[i]))
		}
	}
}

func TestShardedParallelEpochsPinned(t *testing.T) {
	// At the production threshold a workload whose epochs cross it takes
	// both modes; the split is exact, so it is pinned.
	_, se := shardTraces(t, parallelMinEvents, 3*parallelMinEvents)
	if se.Epochs != 77 || se.ParallelEpochs != 38 {
		t.Errorf("epochs=%d parallel=%d, want 77 and 38", se.Epochs, se.ParallelEpochs)
	}
}

// goroutineProbe records the most goroutines seen at any of its events.
type goroutineProbe struct{ max *int }

func (g goroutineProbe) Run(*Engine) { *g.max = max(*g.max, runtime.NumGoroutine()) }

func TestShardedInlineStartsNoGoroutines(t *testing.T) {
	setParallelMin(t, math.MaxUint64)
	se := NewShardedEngine(2, Duration(100*Nanosecond))
	seen := 0
	for i := 0; i < 100; i++ {
		se.Shard(i%2).Eng.Schedule(Time(i)*Time(10*Nanosecond), goroutineProbe{&seen})
	}
	before := runtime.NumGoroutine()
	se.RunUntil(Time(1 * Microsecond))
	if se.ParallelEpochs != 0 {
		t.Fatalf("%d parallel epochs, want 0", se.ParallelEpochs)
	}
	if seen > before {
		t.Errorf("an inline-only RunUntil ran with %d goroutines, %d before it", seen, before)
	}
}

// TestShardedRunUntilShrinksDrainedShards: a burst that drains during a K=2
// RunUntil returns every shard's heap arrays, event table and tie-group
// buffers to their initial sizes, as Engine.RunUntil does for one engine.
// While any shard still has work, no shard shrinks: an idle shard would
// regrow its arrays on the next call.
func TestShardedRunUntilShrinksDrainedShards(t *testing.T) {
	se := NewShardedEngine(2, 10*Nanosecond)
	for i := 0; i < se.NumShards(); i++ {
		sh := se.Shard(i)
		for id := 1; id <= 5000; id++ {
			a := MakeActor(uint32(id))
			sh.Eng.ScheduleKey(Time(1+id%2), a.Next(), EventFunc(func() {}))
		}
	}
	late := MakeActor(9999)
	se.Shard(1).Eng.ScheduleKey(Time(2*Microsecond), late.Next(), EventFunc(func() {}))
	caps := func(e *Engine) [5]int {
		return [5]int{cap(e.ats), cap(e.hs), cap(e.slots), cap(e.batch), cap(e.spare)}
	}

	if more := se.RunUntil(Time(Microsecond)); !more {
		t.Fatal("RunUntil drained the late event early")
	}
	if c := caps(se.Shard(0).Eng); c[0] <= 4096 || c[1] <= 4096 || c[2] <= 4096 || c[3] <= 256 || c[4] <= 256 {
		t.Errorf("idle shard 0 shrank to ats, hs, slots, batch, spare = %v while shard 1 still had work", c)
	}
	if more := se.RunUntil(Time(3 * Microsecond)); more {
		t.Fatal("RunUntil left events queued")
	}
	for i := 0; i < se.NumShards(); i++ {
		e := se.Shard(i).Eng
		if want := uint64(5000 + i); e.Executed != want {
			t.Fatalf("shard %d dispatched %d events, want %d", i, e.Executed, want)
		}
		if c := caps(e); c != [5]int{initCap, initCap, initCap, 0, 0} {
			t.Errorf("shard %d keeps ats, hs, slots, batch, spare = %v after draining; want [%d %d %d 0 0]",
				i, c, initCap, initCap, initCap)
		}
		if len(e.ats) != 0 || len(e.hs) != 0 || len(e.slots) != 0 || e.free != 0 || e.vacant {
			t.Errorf("shard %d: drained heap of %d/%d entries, table of %d slots, free head %d, vacant root %v; want all empty",
				i, len(e.ats), len(e.hs), len(e.slots), e.free, e.vacant)
		}
	}
}

// hookEntry is one line of a shard's log in the EpochEnd tests: an event's
// dispatch time, or for a hook call the end of its epoch, with the epoch
// number it ran in.
type hookEntry struct {
	at    Time
	epoch uint64
	hook  bool
}

// bouncer hops between two shards with delays of at least the lookahead,
// logging each dispatch on the log of the shard it runs on.
type bouncer struct {
	se   *ShardedEngine
	on   int
	hops int
	rng  *RNG
	act  Actor
	logs [][]hookEntry
}

func (b *bouncer) Run(e *Engine) {
	b.logs[b.on] = append(b.logs[b.on], hookEntry{at: e.Now(), epoch: b.se.Epochs})
	if b.hops == 0 {
		return
	}
	b.hops--
	from := b.se.Shard(b.on)
	b.on = b.rng.Intn(2)
	d := Duration(100*Nanosecond) + Duration(b.rng.Intn(3))*Duration(50*Nanosecond)
	from.Post(b.se.Shard(b.on), e.Now().Add(d), b.act.Next(), b)
}

// hookPost is an event posted by an EpochEnd hook: it records when and in
// which epoch it was dispatched.
type hookPost struct {
	se              *ShardedEngine
	at              Time
	postedIn, ranIn uint64
	dispatchedAt    Time
}

func (h *hookPost) Run(e *Engine) { h.ranIn, h.dispatchedAt = h.se.Epochs, e.Now() }

// TestShardEpochEndHook: a shard's EpochEnd hook runs exactly once in every
// epoch in which the shard dispatched events, after the last of them and in
// no other epoch, whether epochs run inline or on worker goroutines. A Post
// from the hook timestamped at the epoch's end or later is dispatched at its
// time in a later epoch.
func TestShardEpochEndHook(t *testing.T) {
	for _, mode := range []struct {
		name      string
		threshold uint64
	}{{"inline", math.MaxUint64}, {"parallel", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			setParallelMin(t, mode.threshold)
			se := NewShardedEngine(2, Duration(100*Nanosecond))
			logs := make([][]hookEntry, 2)
			var posts []*hookPost
			for i := 0; i < 2; i++ {
				sh := se.Shard(i)
				sh.EpochEnd = func() {
					logs[i] = append(logs[i], hookEntry{at: se.epochEnd, epoch: se.Epochs, hook: true})
					if i == 0 && len(posts) < 6 {
						// At the epoch's end, then 70 ns past it.
						at := se.epochEnd.Add(Duration(len(posts)%2) * Duration(70*Nanosecond))
						h := &hookPost{se: se, at: at, postedIn: se.Epochs}
						posts = append(posts, h)
						sh.Post(se.Shard(1), at, uint64(len(posts)), h)
					}
				}
			}
			rng := NewRNG(3)
			for j := 0; j < 40; j++ {
				b := &bouncer{se: se, on: j % 2, hops: 5 + rng.Intn(30), rng: NewRNG(uint64(j + 1)),
					act: MakeActor(uint32(j + 1)), logs: logs}
				se.Shard(b.on).Eng.ScheduleKey(Time(rng.Intn(300))*Time(Nanosecond), b.act.Next(), b)
			}
			se.RunUntil(Time(1 * Millisecond))
			if parallel := se.ParallelEpochs != 0; parallel != (mode.threshold == 0) {
				t.Fatalf("%d of %d epochs ran in parallel", se.ParallelEpochs, se.Epochs)
			}
			for i, log := range logs {
				events, hooks := 0, 0
				var lastHook uint64
				for j, e := range log {
					if !e.hook {
						events++
						continue
					}
					hooks++
					if j == 0 || log[j-1].hook {
						t.Errorf("shard %d: hook in epoch %d, which dispatched none of its events", i, e.epoch)
					}
					if e.epoch <= lastHook {
						t.Errorf("shard %d: hook ran twice by epoch %d", i, e.epoch)
					}
					lastHook = e.epoch
					for k := j - 1; k >= 0 && !log[k].hook; k-- {
						if ev := log[k]; ev.epoch != e.epoch || ev.at >= e.at {
							t.Errorf("shard %d: event at %v of epoch %d logged before the hook of epoch %d ending %v",
								i, ev.at, ev.epoch, e.epoch, e.at)
						}
					}
				}
				if len(log) == 0 || !log[len(log)-1].hook {
					t.Errorf("shard %d: events after its last hook call", i)
				}
				if events == 0 || hooks == 0 {
					t.Errorf("shard %d: %d events, %d hook calls", i, events, hooks)
				}
			}
			if len(posts) == 0 {
				t.Fatal("the hook posted nothing")
			}
			for _, h := range posts {
				if h.ranIn <= h.postedIn || h.dispatchedAt != h.at {
					t.Errorf("hook post at %v from epoch %d ran at %v in epoch %d", h.at, h.postedIn, h.dispatchedAt, h.ranIn)
				}
			}
		})
	}
}

// TestShardEpochEndHookPostInsideEpochPanics: a cross-shard Post from the
// hook timestamped before the epoch's end is a lookahead violation.
func TestShardEpochEndHookPostInsideEpochPanics(t *testing.T) {
	se := NewShardedEngine(2, Duration(100*Nanosecond))
	sh := se.Shard(0)
	sh.EpochEnd = func() {
		sh.Post(se.Shard(1), se.epochEnd-1, 1, EventFunc(func() {}))
	}
	sh.Eng.ScheduleKey(0, 1, EventFunc(func() {}))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "lookahead violation") {
			t.Errorf("in-epoch post from the hook: recovered %q, want a lookahead violation", msg)
		}
	}()
	// Only shard 0 is runnable, so the epoch and its hook run inline on
	// this goroutine and the panic is recoverable here.
	se.RunUntil(Time(1 * Microsecond))
}
