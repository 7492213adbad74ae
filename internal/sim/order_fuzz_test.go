package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// orderRec is one dispatch as FuzzEngineOrder records it.
type orderRec struct {
	at Time
	id int
}

// orderSide is one side of FuzzEngineOrder: the engine (e != nil) or the
// reference, a plain list of pending events dispatched by the documented
// contract. Both sides run the same script, and each event's children are
// a function of the seed and the event's id, which each side assigns in
// its own dispatch order. So the two record the same sequence exactly when
// they dispatch in the same order.
type orderSide struct {
	e      *Engine
	seed   uint64
	now    Time
	nextID int
	actors [4]Actor
	got    []orderRec

	// Reference side: its FIFO counter and its pending events.
	fifo    uint64
	pending []orderRef
}

type orderRef struct {
	at  Time
	key uint64
	id  int
}

// orderEvent is an engine-side event.
type orderEvent struct {
	s  *orderSide
	id int
}

func (ev orderEvent) Run(e *Engine) { ev.s.ran(ev.id, e.Now()) }

// orderMaxEvents caps the events one input schedules, spawned ones
// included, so every input runs quickly.
const orderMaxEvents = 2048

func newOrderSide(seed uint64, engine bool) *orderSide {
	s := &orderSide{seed: seed}
	if engine {
		s.e = NewEngine()
	}
	for i := range s.actors {
		s.actors[i] = MakeActor(uint32(i + 1))
	}
	return s
}

// splitmix is splitmix64's finalizer: the bits an event's id draws its
// children from.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// schedule adds one event at t: through Schedule's FIFO counter if actor
// is negative, else through ScheduleKey with the actor's next key.
func (s *orderSide) schedule(t Time, actor int) {
	if s.nextID == orderMaxEvents {
		return
	}
	id := s.nextID
	s.nextID++
	if s.e != nil {
		if actor < 0 {
			s.e.Schedule(t, orderEvent{s, id})
		} else {
			s.e.ScheduleKey(t, s.actors[actor].Next(), orderEvent{s, id})
		}
		return
	}
	var key uint64
	if actor < 0 {
		s.fifo++
		key = s.fifo
	} else {
		key = s.actors[actor].Next()
	}
	s.pending = append(s.pending, orderRef{at: t, key: key, id: id})
}

// ran records event id at t and schedules its 0, 1 or 2 children, each 0-3
// ps later (0: at the time being dispatched, so during a tie group it joins
// the next group at that time) through Schedule or an actor's ScheduleKey.
func (s *orderSide) ran(id int, t Time) {
	s.got = append(s.got, orderRec{t, id})
	h := splitmix(s.seed ^ uint64(id)*0x9e3779b97f4a7c15)
	for c := 0; c < int(h%3); c++ {
		h >>= 8
		actor := int(h>>2&7) - 4 // -4..-1: FIFO, 0..3: an actor
		s.schedule(t+Time(h&3), max(actor, -1))
	}
}

// dispatch runs every pending event with timestamp <= last.
func (s *orderSide) dispatch(last Time) {
	for len(s.pending) > 0 {
		at := slices.MinFunc(s.pending, func(x, y orderRef) int { return cmp.Compare(x.at, y.at) }).at
		if at > last {
			return
		}
		// The tie group: every event pending at this time now, by key.
		var group []orderRef
		s.pending = slices.DeleteFunc(s.pending, func(r orderRef) bool {
			if r.at == at {
				group = append(group, r)
			}
			return r.at == at
		})
		slices.SortFunc(group, func(x, y orderRef) int { return cmp.Compare(x.key, y.key) })
		for _, r := range group {
			s.now = at
			s.ran(r.id, at)
		}
	}
}

// runUntil is RunUntil on either side; runBefore is RunBefore.
func (s *orderSide) runUntil(deadline Time) {
	if s.e != nil {
		s.e.RunUntil(deadline)
		return
	}
	s.dispatch(deadline)
	s.now = max(s.now, deadline)
}

func (s *orderSide) runBefore(end Time) {
	if s.e != nil {
		s.e.RunBefore(end)
		return
	}
	s.dispatch(end - 1)
}

func (s *orderSide) clock() Time {
	if s.e != nil {
		return s.e.Now()
	}
	return s.now
}

// play runs script on s. Each operation is one byte, low three bits the
// kind, high five bits its argument, and some read one more byte:
//
//	0, 1: one event argument ps ahead, FIFO or from actor byte&3
//	2:    a burst of byte+1 events argument ps ahead, each FIFO or keyed
//	      (one group when nothing else shares its time: 1 to 256 wide,
//	      either side of radixMin)
//	3:    RunUntil argument ps ahead
//	4:    RunBefore argument ps ahead
//	5-7:  nothing
//
// After the script, everything still pending runs.
func (s *orderSide) play(script []byte) {
	for i := 0; i < len(script); i++ {
		op, arg := script[i]&7, Time(script[i]>>3)
		next := func() byte {
			if i+1 < len(script) {
				i++
				return script[i]
			}
			return 0
		}
		now := s.clock()
		switch op {
		case 0:
			s.schedule(now+arg, -1)
		case 1:
			s.schedule(now+arg, int(next()&3))
		case 2:
			n := int(next()) + 1
			for j := 0; j < n; j++ {
				actor := int(splitmix(s.seed+uint64(s.nextID))&7) - 4
				s.schedule(now+arg, max(actor, -1))
			}
		case 3:
			s.runUntil(now + arg)
		case 4:
			s.runBefore(now + arg)
		}
	}
	s.runUntil(maxTime - 1)
}

// FuzzEngineOrder checks the engine's dispatch order against a naive
// reference of the documented contract: events run in timestamp order;
// the events pending at one timestamp when the first of them runs form a
// group that runs in ascending key order, FIFO keys below Actor keys; an
// event scheduled at that timestamp while its group runs waits for the
// whole group. Scripts mix Schedule and ScheduleKey, same-time bursts
// either side of radixMin, handlers that schedule 0-2 events (some at the
// current time), and runs cut by RunUntil and RunBefore.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint64(1), []byte{0, 8, 1, 2, 16, 3, 24 | 3, 0})
	f.Add(uint64(2), []byte{2, 100, 10, 1, 3, 2 | 8, 0, 4 | 8, 2, 200})
	f.Add(uint64(3), []byte{2, radixMin - 2, 2, radixMin, 3, 2 | 16, 255, 1 | 16, 2, 4 | 32, 3 | 64})
	f.Add(uint64(4), []byte{2 | 8, radixMin - 2, 2 | 16, radixMin - 1, 3 | 24, 2 | 8, radixMin, 4 | 8, 0, 1 | 8, 3, 3 | 40})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		eng, ref := newOrderSide(seed, true), newOrderSide(seed, false)
		eng.play(script)
		ref.play(script)
		if eng.e.Pending() != 0 {
			t.Fatalf("engine kept %d events pending after the final run", eng.e.Pending())
		}
		if eng.e.Executed != uint64(len(eng.got)) {
			t.Fatalf("engine counted %d dispatches, recorded %d", eng.e.Executed, len(eng.got))
		}
		if !slices.Equal(eng.got, ref.got) {
			i := 0
			for i < min(len(eng.got), len(ref.got)) && eng.got[i] == ref.got[i] {
				i++
			}
			at := func(got []orderRec) string {
				if i < len(got) {
					return fmt.Sprintf("%+v", got[i])
				}
				return "nothing"
			}
			t.Fatalf("dispatch %d of %d/%d: engine ran %s, reference %s",
				i, len(eng.got), len(ref.got), at(eng.got), at(ref.got))
		}
	})
}
