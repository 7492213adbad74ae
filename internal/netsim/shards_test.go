package netsim

import (
	"reflect"
	"testing"

	"baldur/internal/sim"
)

// runtimeModel is the smallest model on the shard runtime: one injection and
// one delivery per shard, each from an event on that shard. Callbacks log
// per destination shard, the only state they may touch.
type runtimeModel struct {
	Shards
	agg    Ledger
	shards []*Shard
	folds  int
	calls  [][]int
}

func newRuntimeModel(k int) *runtimeModel {
	m := &runtimeModel{shards: make([]*Shard, k), calls: make([][]int, k)}
	for i := range m.shards {
		m.shards[i] = &Shard{}
	}
	m.Shards = NewShards(sim.Nanosecond, &m.agg, func() { m.folds++ }, m.shards...)
	for i := 1; i <= 2; i++ {
		i := i
		m.OnDeliver(func(_ int, p *Packet, _ sim.Time) { m.calls[p.Dst] = append(m.calls[p.Dst], i) })
	}
	for i, sh := range m.shards {
		sh := sh
		p := &Packet{ID: uint64(i + 1), Src: i, Dst: i}
		sh.Sim.Eng.ScheduleKey(sim.Time(10*(i+1)), uint64(i), sim.EventFunc(func() {
			p.Created = sh.Sim.Eng.Now()
			sh.Inject(p)
			sh.Ledger.MaxHops = max(sh.Ledger.MaxHops, sh.Sim.ID+1)
			m.Deliver(sh, p, p.Created)
		}))
	}
	return m
}

func TestShardsFoldAtThreeShards(t *testing.T) {
	m := newRuntimeModel(3)
	for i, sh := range m.shards {
		if sh.Ledger == &m.agg || sh.Sim.ID != i {
			t.Fatalf("shard %d: ledger aliases the aggregate or wrong engine shard %d", i, sh.Sim.ID)
		}
	}
	if more := m.Run(sim.Time(sim.Microsecond)); more {
		t.Error("Run reports events left after the last delivery")
	}
	want := Ledger{Injected: 3, Delivered: 3, MaxHops: 3}
	if m.agg != want || m.Ledger() != want {
		t.Errorf("folded aggregate = %+v, Ledger() = %+v, want %+v", m.agg, m.Ledger(), want)
	}
	if m.folds != 1 {
		t.Errorf("fold hook ran %d times, want once per Run", m.folds)
	}
	m.Run(sim.Time(2 * sim.Microsecond))
	if m.agg != want || m.folds != 2 {
		t.Errorf("second Run folded %d times to %+v, want twice to the same aggregate", m.folds, m.agg)
	}
	if !reflect.DeepEqual(m.calls, [][]int{{1, 2}, {1, 2}, {1, 2}}) {
		t.Errorf("callback order per shard = %v, want registration order", m.calls)
	}
	if m.Events() != 3 || m.Epochs() == 0 || m.NumShards() != 3 {
		t.Errorf("events %d epochs %d shards %d, want 3 events over >0 epochs on 3 shards",
			m.Events(), m.Epochs(), m.NumShards())
	}
}
