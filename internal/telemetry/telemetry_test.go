package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"baldur/internal/sim"
)

func TestRegistryFoldOrderAndTotals(t *testing.T) {
	reg := NewRegistry(4)
	c := reg.Counter("drops")
	g := reg.Gauge("queued")
	if got := reg.Index("drops"); got != c {
		t.Fatalf("Index(drops) = %d, want %d", got, c)
	}
	if got := reg.Index("missing"); got != -1 {
		t.Fatalf("Index(missing) = %d, want -1", got)
	}
	// Write distinct per-shard values; the fold must sum all shards.
	for shard := 0; shard < 4; shard++ {
		reg.Count(c, shard).Add(uint64(1 << shard))
		reg.Count(g, shard).Set(uint64(10 * (shard + 1)))
	}
	vals := reg.Fold(nil)
	if vals[c] != 1+2+4+8 {
		t.Errorf("folded counter = %d, want 15", vals[c])
	}
	if vals[g] != 10+20+30+40 {
		t.Errorf("folded gauge = %d, want 100", vals[g])
	}
	if got := reg.Total("drops"); got != 15 {
		t.Errorf("Total(drops) = %d, want 15", got)
	}
	if got := reg.Total("missing"); got != 0 {
		t.Errorf("Total(missing) = %d, want 0", got)
	}
	// Fold must reuse dst without retaining stale entries.
	vals2 := reg.Fold(vals)
	if len(vals2) != 2 || vals2[c] != 15 {
		t.Errorf("Fold(dst) = %v, want [15 100]", vals2)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric registration did not panic")
		}
	}()
	reg := NewRegistry(1)
	reg.Counter("x")
	reg.Gauge("x")
}

func TestCountHandles(t *testing.T) {
	reg := NewRegistry(2)
	id := reg.Counter("n")
	h := reg.Count(id, 1)
	h.Inc()
	h.Add(4)
	if got := reg.Total("n"); got != 5 {
		t.Fatalf("after Inc+Add(4): total = %d, want 5", got)
	}
	h.Set(2)
	if got := reg.Total("n"); got != 2 {
		t.Fatalf("after Set(2): total = %d, want 2", got)
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	f := NewFlightRecorder(1, 4)
	r := f.Ring(0)
	for i := 0; i < 7; i++ {
		r.Add(Record{At: sim.Time(i), Pkt: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Overwritten() != 3 {
		t.Fatalf("Overwritten = %d, want 3", r.Overwritten())
	}
	if f.Overwritten() != 3 {
		t.Fatalf("recorder Overwritten = %d, want 3", f.Overwritten())
	}
	recs := f.Records()
	// Records 3..6 survive; Records sorts by time so order is ascending.
	for i, want := range []uint64{3, 4, 5, 6} {
		if recs[i].Pkt != want {
			t.Errorf("recs[%d].Pkt = %d, want %d", i, recs[i].Pkt, want)
		}
	}
}

func TestRecordsMergeSortIsShardLayoutInvariant(t *testing.T) {
	// The same set of records, distributed over different ring layouts,
	// must export in the same order.
	mk := func(at int64, pkt uint64, kind RecordKind, loc int32) Record {
		return Record{At: sim.Time(at), Pkt: pkt, Kind: kind, Loc: loc}
	}
	all := []Record{
		mk(5, 2, KindHop, 1), mk(5, 2, KindHop, 0), mk(5, 2, KindDrop, 0),
		mk(5, 1, KindInject, -1), mk(3, 9, KindDeliver, -1), mk(7, 0, KindAck, -1),
	}
	one := NewFlightRecorder(1, 16)
	for _, r := range all {
		one.Ring(0).Add(r)
	}
	three := NewFlightRecorder(3, 16)
	for i, r := range all {
		three.Ring(i % 3).Add(r)
	}
	a, b := one.Records(), three.Records()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("record %d differs across layouts: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Spot-check the total order itself.
	if a[0].Pkt != 9 || a[len(a)-1].Kind != KindAck {
		t.Errorf("unexpected sort order: first %+v last %+v", a[0], a[len(a)-1])
	}
}

func TestSamplerDeltasAndGaugeLevels(t *testing.T) {
	reg := NewRegistry(2)
	c := reg.Counter("delivered")
	g := reg.Gauge("queued")
	s := &Sampler{Interval: sim.Duration(10)}

	reg.Count(c, 0).Add(3)
	reg.Count(c, 1).Add(2)
	reg.Count(g, 0).Set(7)
	s.Take(sim.Time(10), reg, 100, 1)

	reg.Count(c, 0).Add(4)
	reg.Count(g, 0).Set(1)
	s.Take(sim.Time(20), reg, 250, 3)

	if len(s.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(s.Samples))
	}
	s0, s1 := s.Samples[0], s.Samples[1]
	if s0.Values[c] != 5 || s1.Values[c] != 4 {
		t.Errorf("counter deltas = %d,%d, want 5,4", s0.Values[c], s1.Values[c])
	}
	if s0.Values[g] != 7 || s1.Values[g] != 1 {
		t.Errorf("gauge levels = %d,%d, want 7,1", s0.Values[g], s1.Values[g])
	}
	if s0.Events != 100 || s1.Events != 150 {
		t.Errorf("event deltas = %d,%d, want 100,150", s0.Events, s1.Events)
	}
	if s0.Epochs != 1 || s1.Epochs != 2 {
		t.Errorf("epoch deltas = %d,%d, want 1,2", s0.Epochs, s1.Epochs)
	}
	// Counter columns must sum to the end-of-run total.
	if sum := s0.Values[c] + s1.Values[c]; sum != reg.Total("delivered") {
		t.Errorf("summed deltas %d != total %d", sum, reg.Total("delivered"))
	}
}

// TestRegistryModelOwnedCounters covers counters whose per-shard values
// live in the model (CounterOf): they interleave with registry-owned
// metrics in registration order, fold across shards in shard order, and the
// sampler turns the model's live values into per-interval deltas.
func TestRegistryModelOwnedCounters(t *testing.T) {
	var model [2]struct{ injected, dropped uint64 }
	reg := NewRegistry(2)
	own := reg.Counter("hops")
	inj := reg.CounterOf("injected", []*uint64{&model[0].injected, &model[1].injected})
	g := reg.Gauge("queued")
	drop := reg.CounterOf("dropped", []*uint64{&model[0].dropped, &model[1].dropped})
	if got, want := strings.Join(reg.Names(), ","), "hops,injected,queued,dropped"; got != want {
		t.Fatalf("names = %s, want %s", got, want)
	}
	if k := reg.Kinds(); k[inj] != KindCounter || k[drop] != KindCounter {
		t.Fatalf("model-owned metrics registered as %v", k)
	}
	s := &Sampler{Interval: sim.Duration(10)}

	model[0].injected, model[1].injected = 3, 4
	model[1].dropped = 1
	reg.Count(own, 1).Add(2)
	reg.Count(g, 0).Set(9)
	if got := reg.Fold(nil); got[own] != 2 || got[inj] != 7 || got[g] != 9 || got[drop] != 1 {
		t.Errorf("Fold = %v, want [2 7 9 1]", got)
	}
	s.Take(sim.Time(10), reg, 0, 0)

	// The model keeps counting; no handle is resolved or re-registered.
	model[0].injected += 10
	model[1].injected++
	model[0].dropped += 2
	s.Take(sim.Time(20), reg, 0, 0)

	if got := reg.Total("injected"); got != 18 {
		t.Errorf("Total(injected) = %d, want 18", got)
	}
	if got := reg.Total("dropped"); got != 3 {
		t.Errorf("Total(dropped) = %d, want 3", got)
	}
	s0, s1 := s.Samples[0], s.Samples[1]
	if s0.Values[inj] != 7 || s1.Values[inj] != 11 {
		t.Errorf("injected deltas = %d,%d, want 7,11", s0.Values[inj], s1.Values[inj])
	}
	if s0.Values[drop] != 1 || s1.Values[drop] != 2 {
		t.Errorf("dropped deltas = %d,%d, want 1,2", s0.Values[drop], s1.Values[drop])
	}
	if s1.Values[own] != 0 || s1.Values[g] != 9 {
		t.Errorf("registry-owned metrics disturbed: hops delta %d, gauge %d", s1.Values[own], s1.Values[g])
	}

	defer func() {
		if recover() == nil {
			t.Fatal("CounterOf with the wrong shard count did not panic")
		}
	}()
	reg.CounterOf("short", []*uint64{&model[0].injected})
}

func TestWatchLineDerivesUtilization(t *testing.T) {
	reg := NewRegistry(1)
	d := reg.Counter("drops")
	busy := reg.Gauge("wires_busy")
	tot := reg.Gauge("wires_total")
	var out strings.Builder
	s := &Sampler{Interval: sim.Duration(10), Watch: &out, Label: "cell"}
	reg.Count(d, 0).Inc()
	reg.Count(busy, 0).Set(25)
	reg.Count(tot, 0).Set(100)
	s.Take(sim.Time(10), reg, 42, 0)
	line := out.String()
	for _, want := range []string{"[cell]", "drops+=1", "util=25.0%", "ev+=42"} {
		if !strings.Contains(line, want) {
			t.Errorf("watch line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "epochs") {
		t.Errorf("watch line %q should omit zero epochs", line)
	}
}

func TestNewDefaultsAndDisabledRecorder(t *testing.T) {
	tel := New(Options{}, 0)
	if tel.Opts.SampleInterval != DefaultSampleInterval {
		t.Errorf("SampleInterval = %v, want default", tel.Opts.SampleInterval)
	}
	if tel.Rec == nil || tel.Ring(0) == nil {
		t.Error("default Options should enable the flight recorder")
	}
	off := New(Options{FlightRecords: -1}, 2)
	if off.Rec != nil || off.Ring(0) != nil || off.Ring(1) != nil {
		t.Error("FlightRecords<0 should disable the recorder")
	}
	var nilTel *Telemetry
	if nilTel.Ring(0) != nil {
		t.Error("nil Telemetry Ring must be nil")
	}
}

func TestTagPath(t *testing.T) {
	cases := []struct{ path, tag, want string }{
		{"out.json", "", "out.json"},
		{"out.json", "baldur-0.7", "out-baldur-0.7.json"},
		{"dir.d/out.csv", "x", "dir.d/out-x.csv"},
		{"noext", "x", "noext-x"},
		{"dir.d/noext", "x", "dir.d/noext-x"},
	}
	for _, c := range cases {
		if got := tagPath(c.path, c.tag); got != c.want {
			t.Errorf("tagPath(%q,%q) = %q, want %q", c.path, c.tag, got, c.want)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	recs := []Record{
		{At: 100, Pkt: 1, Src: 0, Dst: 3, Loc: -1, Kind: KindInject},
		{At: 150, Dur: 40, Pkt: 1, Src: 0, Dst: 3, Loc: 2, Aux: 5, Kind: KindHop},
		{At: 300, Pkt: 1, Src: 0, Dst: 3, Loc: -1, Kind: KindDeliver},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, recs, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, b.String())
	}
	// 1 process_name + 1 thread_name (one src) + 3 records.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(doc.TraceEvents))
	}
	var sawHop bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			sawHop = true
			if ev.Name != "hop@2" || ev.Dur == nil || math.Abs(*ev.Dur-40e-6) > 1e-12 {
				t.Errorf("hop event malformed: %+v", ev)
			}
		}
	}
	if !sawHop {
		t.Error("no complete (X) hop event in trace")
	}
}

func TestFlightAndMetricsCSV(t *testing.T) {
	recs := []Record{{At: 10, Dur: 2, Pkt: 7, Src: 1, Dst: 2, Loc: 0, Aux: 3, Kind: KindHop}}
	var b strings.Builder
	if err := WriteFlightCSV(&b, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "at_ps,dur_ps,kind,pkt,src,dst,loc,aux,phase" {
		t.Errorf("flight CSV header = %q", lines[0])
	}
	if lines[1] != "10,2,hop,7,1,2,0,3," {
		t.Errorf("flight CSV row = %q", lines[1])
	}

	reg := NewRegistry(1)
	c := reg.Counter("delivered")
	reg.Count(c, 0).Add(9)
	s := &Sampler{}
	s.Take(sim.Time(1000), reg, 5, 2)
	b.Reset()
	if err := WriteMetricsCSV(&b, reg, s.Samples); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "at_ps,events,epochs,delivered" {
		t.Errorf("metrics CSV header = %q", lines[0])
	}
	if lines[1] != "1000,5,2,9" {
		t.Errorf("metrics CSV row = %q", lines[1])
	}
}
