package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"baldur/internal/check"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// TestPacketSize pins the packet at 120 B, inside Go's 128 B size class: a
// new flag belongs in the padding beside the existing ones.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 120 {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d B, want 120", n)
	}
}

// fakeNet is a minimal Network for collector testing.
type fakeNet struct {
	eng *sim.Engine
	fns []func(int, *Packet, sim.Time)
}

func (f *fakeNet) Engine() *sim.Engine { return f.eng }
func (f *fakeNet) NumNodes() int       { return 2 }
func (f *fakeNet) Send(src, dst, size int) *Packet {
	return &Packet{Src: src, Dst: dst, Size: size, Created: f.eng.Now()}
}
func (f *fakeNet) OnDeliver(fn func(int, *Packet, sim.Time)) { f.fns = append(f.fns, fn) }
func (f *fakeNet) Ledger() Ledger                            { return Ledger{} }
func (f *fakeNet) Run(deadline sim.Time) bool                { return f.eng.RunUntil(deadline) }
func (f *fakeNet) Events() uint64                            { return f.eng.Executed }
func (f *fakeNet) Epochs() uint64                            { return 0 }
func (f *fakeNet) NumShards() int                            { return 1 }
func (f *fakeNet) NodeShard(int) int                         { return 0 }
func (f *fakeNet) Queued() int                               { return f.eng.Pending() }
func (f *fakeNet) NextTime() sim.Time                        { return f.eng.NextTime() }
func (f *fakeNet) ScheduleNode(_ int, t sim.Time, ev sim.Event) {
	f.eng.Schedule(t, ev)
}

func (f *fakeNet) deliver(p *Packet, at sim.Time) {
	for _, fn := range f.fns {
		fn(0, p, at)
	}
}

func TestCollectorBasics(t *testing.T) {
	n := &fakeNet{eng: sim.NewEngine()}
	var c Collector
	c.Attach(n)
	p := &Packet{Created: 0}
	n.deliver(p, sim.Time(500*sim.Nanosecond))
	n.deliver(&Packet{Created: sim.Time(100 * sim.Nanosecond)}, sim.Time(400*sim.Nanosecond))
	if c.Delivered() != 2 {
		t.Errorf("Delivered = %d", c.Delivered())
	}
	if avg := c.AvgNS(); avg != 400 {
		t.Errorf("AvgNS = %v, want 400", avg)
	}
	if tail := c.TailNS(); tail < 400 {
		t.Errorf("TailNS = %v", tail)
	}
}

func TestCollectorEmpty(t *testing.T) {
	var c Collector
	if c.AvgNS() != 0 || c.TailNS() != 0 || c.Delivered() != 0 {
		t.Error("zero-value collector not neutral")
	}
}

func TestMultipleCollectors(t *testing.T) {
	n := &fakeNet{eng: sim.NewEngine()}
	var a, b Collector
	a.Attach(n)
	b.Attach(n)
	n.deliver(&Packet{Created: 0}, sim.Time(100))
	if a.Delivered() != 1 || b.Delivered() != 1 {
		t.Error("both collectors should observe the delivery")
	}
}

// slicedNet is a fakeNet that runs on the sharded path and records the
// deadline of every Run call. Its queue empties once a slice reaches drainAt
// (0: never).
type slicedNet struct {
	fakeNet
	runs    []sim.Time
	drainAt sim.Time
}

func (n *slicedNet) Run(deadline sim.Time) bool {
	n.runs = append(n.runs, deadline)
	return n.drainAt == 0 || deadline < n.drainAt
}
func (n *slicedNet) Events() uint64                        { return 0 }
func (n *slicedNet) NumShards() int                        { return 1 }
func (n *slicedNet) NodeShard(int) int                     { return 0 }
func (n *slicedNet) ScheduleNode(int, sim.Time, sim.Event) {}

// oneAtATime is a Timeline that applies a single due action per ApplyDue
// call, so two actions at one time leave one due behind the boundary.
type oneAtATime []sim.Time

func (s *oneAtATime) NextAt() (sim.Time, bool) {
	if len(*s) == 0 {
		return 0, false
	}
	return (*s)[0], true
}
func (s *oneAtATime) Pending() bool { return len(*s) > 0 }
func (s *oneAtATime) ApplyDue(_ Network, now sim.Time, _ *telemetry.Telemetry) (int, error) {
	if len(*s) == 0 || (*s)[0] > now {
		return 0, nil
	}
	*s = (*s)[1:]
	return 1, nil
}

func TestDriveBoundaries(t *testing.T) {
	ns := func(x int64) sim.Time { return sim.Time(sim.Duration(x) * sim.Nanosecond) }
	for _, tc := range []struct {
		name        string
		audit       sim.Duration // auditor checkpoint interval (0: no auditor)
		actions     []sim.Time   // timeline action times (nil: no timeline)
		drainAt     sim.Time
		wantRuns    []sim.Time
		wantDrained []bool // drained flag of each checkpoint
		wantMore    bool
	}{
		{
			name:     "nothing attached runs once",
			wantRuns: []sim.Time{ns(100)},
			wantMore: true,
		},
		{
			name:        "interval multiples, last clipped to the deadline",
			audit:       30 * sim.Nanosecond,
			wantRuns:    []sim.Time{ns(30), ns(60), ns(90), ns(100)},
			wantDrained: []bool{false, false, false, false},
			wantMore:    true,
		},
		{
			name:        "actions force exact boundaries, a late one is nudged",
			audit:       30 * sim.Nanosecond,
			actions:     []sim.Time{ns(25), ns(25)},
			wantRuns:    []sim.Time{ns(25), ns(25).Add(sim.Picosecond), ns(55).Add(sim.Picosecond), ns(85).Add(sim.Picosecond), ns(100)},
			wantDrained: []bool{false, false, false, false, false},
			wantMore:    true,
		},
		{
			name:        "a drained run stops at the next boundary",
			audit:       20 * sim.Nanosecond,
			drainAt:     ns(45),
			wantRuns:    []sim.Time{ns(20), ns(40), ns(60)},
			wantDrained: []bool{false, false, true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := &slicedNet{fakeNet: fakeNet{eng: sim.NewEngine()}, drainAt: tc.drainAt}
			opts := DriveOptions{Deadline: ns(100)}
			var drained []bool
			if tc.audit > 0 {
				opts.Aud = check.New(check.Options{Interval: tc.audit})
				opts.Aud.OnCheckpoint(func(_ sim.Time, d bool) { drained = append(drained, d) })
			}
			var tl Timeline
			if tc.actions != nil {
				tl = (*oneAtATime)(&tc.actions)
			}
			more, err := Drive(n, tl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if more != tc.wantMore {
				t.Errorf("more = %v, want %v", more, tc.wantMore)
			}
			if !reflect.DeepEqual(n.runs, tc.wantRuns) {
				t.Errorf("Run deadlines = %v, want %v", n.runs, tc.wantRuns)
			}
			if !reflect.DeepEqual(drained, tc.wantDrained) {
				t.Errorf("checkpoint drained flags = %v, want %v", drained, tc.wantDrained)
			}
		})
	}
}

// TestLedgerAddFoldsEveryCounter guards the one fold every network's
// Ledger() goes through: each uint64 counter sums and MaxHops takes the max,
// so a counter added to Ledger but not to Add fails here.
func TestLedgerAddFoldsEveryCounter(t *testing.T) {
	var a, b Ledger
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() == reflect.Uint64 {
			va.Field(i).SetUint(uint64(i + 1))
			vb.Field(i).SetUint(uint64(100 * (i + 1)))
		}
	}
	a.MaxHops, b.MaxHops = 7, 3
	a.Add(&b)
	for i := 0; i < va.NumField(); i++ {
		if f := va.Field(i); f.Kind() == reflect.Uint64 && f.Uint() != uint64(101*(i+1)) {
			t.Errorf("%s = %d after Add, want %d", va.Type().Field(i).Name, f.Uint(), 101*(i+1))
		}
	}
	if a.MaxHops != 7 {
		t.Errorf("MaxHops = %d after Add, want max 7", a.MaxHops)
	}
}
