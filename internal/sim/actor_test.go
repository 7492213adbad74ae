package sim

import (
	"math"
	"strings"
	"testing"
)

// TestActorNextPanicsBeforeWrap starts an actor just below the end of its
// 32-bit draw counter: the keys it may still draw stay inside its own id,
// and the draw that would carry into the next actor's keys panics.
func TestActorNextPanicsBeforeWrap(t *testing.T) {
	const id = 7
	a := MakeActor(id) + math.MaxUint32 - 2
	next := uint64(MakeActor(id + 1))
	for i := 0; i < 2; i++ {
		if k := a.Next(); k>>32 != id || k >= next {
			t.Fatalf("draw %d = %#x, outside actor %d's keys", i, k, id)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "sim: actor key stream exhausted") {
			t.Fatalf("recovered %q, want an exhausted key stream panic", msg)
		}
	}()
	k := a.Next()
	t.Fatalf("draw past the counter's end returned %#x without panicking", k)
}
