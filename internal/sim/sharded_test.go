package sim

import (
	"testing"
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
