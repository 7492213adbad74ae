package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/core"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/traffic"
)

// runTelemetryCell runs one telemetry-enabled Baldur cell and returns the
// point, the network (for its model statistics), its telemetry layer, and
// the collector.
func runTelemetryCell(t *testing.T, pattern string, load float64, shards int, opts telemetry.Options) (Point, *core.Network, *telemetry.Telemetry, *netsim.Collector) {
	t.Helper()
	sc := Quick
	sc.Shards = shards
	sc.Telemetry = &opts
	var col netsim.Collector
	d, net, err := runOpenLoopCell(&col, "baldur", pattern, load, sc)
	if err != nil {
		t.Fatal(err)
	}
	p, tel := d.Point, d.Telemetry
	bn, ok := net.(*core.Network)
	if !ok {
		t.Fatalf("baldur cell returned %T", net)
	}
	if tel == nil {
		t.Fatal("telemetry layer not attached")
	}
	return p, bn, tel, &col
}

// runFaultedTelemetryCell runs one telemetry-enabled cell of the canonical
// fuzz configuration under open-loop load while flapScript kills and
// restores switch/router 0, so the fault-drop ledgers count.
func runFaultedTelemetryCell(t *testing.T, network string, shards int) (netsim.Network, *telemetry.Telemetry, *netsim.Collector) {
	t.Helper()
	cfg := check.FuzzConfig{
		Net: network, NodesExp: 3, LoadPct: 70,
		PacketsPerNode: 12, MaxAttempts: 16, FaultStage: -1, Seed: 1,
	}.Canon()
	net, _, err := harness.Build(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.NumShards(); got != shards {
		t.Fatalf("%s built %d shards, want %d", network, got, shards)
	}
	script, err := flapScript().Compile(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var col netsim.Collector
	c := &cell{
		net: net, label: network, col: &col,
		start: func(net netsim.Network) error {
			ol := traffic.OpenLoop{
				Pattern:        traffic.RandomPermutation(net.NumNodes(), cfg.Seed+10),
				Load:           float64(cfg.LoadPct) / 100,
				PacketsPerNode: cfg.PacketsPerNode,
				Seed:           cfg.Seed + 100,
			}
			ol.Start(net)
			return nil
		},
		timeline: faults.NewController(script),
		tel:      &telemetry.Options{SampleInterval: sim.Microseconds(0.5)},
		drive:    netsim.DriveOptions{Deadline: sim.Time(0).Add(sim.Microseconds(500))},
	}
	if err := c.run(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.more {
		t.Fatalf("%s K=%d: faulted cell did not drain", network, shards)
	}
	return net, c.drive.Tel, &col
}

// ledgerMetrics names the ledger counter behind each telemetry metric the
// networks bind to their per-shard ledgers.
var ledgerMetrics = map[string]func(netsim.Ledger) uint64{
	"injected":        func(l netsim.Ledger) uint64 { return l.Injected },
	"delivered":       func(l netsim.Ledger) uint64 { return l.Delivered },
	"duplicates":      func(l netsim.Ledger) uint64 { return l.Duplicates },
	"data_attempts":   func(l netsim.Ledger) uint64 { return l.DataAttempts },
	"data_drops":      func(l netsim.Ledger) uint64 { return l.DataDrops },
	"ack_attempts":    func(l netsim.Ledger) uint64 { return l.AckAttempts },
	"ack_drops":       func(l netsim.Ledger) uint64 { return l.AckDrops },
	"retransmissions": func(l netsim.Ledger) uint64 { return l.Retransmissions },
	"dropped":         func(l netsim.Ledger) uint64 { return l.Dropped },
}

// TestTelemetryCountersMatchRunStatistics checks the tentpole accounting
// invariant: summing the sampled per-interval counter deltas reproduces the
// end-of-run ledger exactly, and so do the registry totals. Baldur runs
// random_permutation at 0.5, where the seeded Quick run drops packets; the
// electrical fat-tree runs a fault script at K=1 and K=2, so packets are
// faulted away and the per-shard ledgers fold across shards.
func TestTelemetryCountersMatchRunStatistics(t *testing.T) {
	baldur := func(t *testing.T) (netsim.Network, *telemetry.Telemetry, *netsim.Collector) {
		_, net, tel, col := runTelemetryCell(t, "random_permutation", 0.5, 0, telemetry.Options{})
		return net, tel, col
	}
	fattree := func(k int) func(*testing.T) (netsim.Network, *telemetry.Telemetry, *netsim.Collector) {
		return func(t *testing.T) (netsim.Network, *telemetry.Telemetry, *netsim.Collector) {
			return runFaultedTelemetryCell(t, "fattree", k)
		}
	}
	for _, tc := range []struct {
		name    string
		run     func(*testing.T) (netsim.Network, *telemetry.Telemetry, *netsim.Collector)
		metrics []string
		nonzero string // the seeded run must drive this counter above zero
	}{
		{"baldur", baldur, []string{"injected", "delivered", "duplicates", "data_attempts",
			"data_drops", "ack_attempts", "ack_drops", "retransmissions"}, "data_drops"},
		{"fattree-faults-K1", fattree(1), []string{"injected", "delivered", "dropped"}, "dropped"},
		{"fattree-faults-K2", fattree(2), []string{"injected", "delivered", "dropped"}, "dropped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, tel, col := tc.run(t)
			l := net.Ledger()
			for _, name := range tc.metrics {
				want := ledgerMetrics[name](l)
				id := tel.Reg.Index(name)
				if id < 0 {
					t.Fatalf("counter %q not registered", name)
				}
				var sum uint64
				for _, sm := range tel.Sampler.Samples {
					sum += sm.Values[id]
				}
				if sum != want {
					t.Errorf("summed %s deltas = %d, want ledger total %d", name, sum, want)
				}
				if got := tel.Reg.Total(name); got != want {
					t.Errorf("registry total %s = %d, want %d", name, got, want)
				}
			}
			if ledgerMetrics[tc.nonzero](l) == 0 {
				t.Errorf("seeded run left %s at zero; that accounting is untested", tc.nonzero)
			}
			if got := tel.Reg.Total("delivered"); got != col.Delivered() {
				t.Errorf("delivered counter %d != collector %d", got, col.Delivered())
			}
		})
	}
}

// TestTelemetrySeriesIsShardCountInvariant checks the acceptance criterion:
// the sampled metric series of the Fig 6 Baldur transpose cell at load 0.7
// is bit-identical for K=1 and K=4, excluding the Epochs column (barrier
// rounds are execution telemetry and inherently depend on K).
func TestTelemetrySeriesIsShardCountInvariant(t *testing.T) {
	// Size the rings so they never wrap: a wrapped ring keeps each shard's
	// most recent window, which legitimately differs across shard layouts.
	opts := telemetry.Options{FlightRecords: 1 << 17}
	p1, _, tel1, _ := runTelemetryCell(t, "transpose", 0.7, 1, opts)
	p4, _, tel4, _ := runTelemetryCell(t, "transpose", 0.7, 4, opts)
	if p1 != p4 {
		t.Fatalf("points differ across shard counts:\nK=1 %+v\nK=4 %+v", p1, p4)
	}
	a, b := tel1.Sampler.Samples, tel4.Sampler.Samples
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Events != b[i].Events {
			t.Errorf("sample %d header differs: K=1 {at=%d ev=%d} K=4 {at=%d ev=%d}",
				i, a[i].At, a[i].Events, b[i].At, b[i].Events)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Errorf("sample %d metric %s differs: K=1 %d K=4 %d",
					i, tel1.Reg.Names()[j], a[i].Values[j], b[i].Values[j])
			}
		}
	}
	// The flight-record streams must also merge to the same export.
	r1, r4 := tel1.Rec.Records(), tel4.Rec.Records()
	if len(r1) != len(r4) {
		t.Fatalf("flight record counts differ: %d vs %d", len(r1), len(r4))
	}
	for i := range r1 {
		if r1[i] != r4[i] {
			t.Fatalf("flight record %d differs: K=1 %+v K=4 %+v", i, r1[i], r4[i])
		}
	}
	// Epochs are the one K-dependent column: zero when serial, positive when
	// sharded.
	var e1, e4 uint64
	for i := range a {
		e1 += a[i].Epochs
		e4 += b[i].Epochs
	}
	if e1 != 0 {
		t.Errorf("serial run reported %d epochs, want 0", e1)
	}
	if e4 == 0 {
		t.Error("K=4 run reported no epochs")
	}
}

// TestTelemetryFileOutputs drives the full export path: the Chrome trace
// must be valid JSON (Perfetto-loadable) and the metrics CSV's delivered
// column must sum to the run total.
func TestTelemetryFileOutputs(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	metricsOut := filepath.Join(dir, "metrics.csv")
	_, net, _, _ := runTelemetryCell(t, "transpose", 0.7, 0, telemetry.Options{
		TraceOut:   traceOut,
		MetricsOut: metricsOut,
	})
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			kinds[name] = true
		}
	}
	for _, want := range []string{"inject", "deliver", "process_name"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
	csv, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := sumCSVColumns(string(csv))
	if err != nil {
		t.Fatal(err)
	}
	if sums["delivered"] != net.Stats.Delivered {
		t.Errorf("CSV delivered sum = %d, want %d", sums["delivered"], net.Stats.Delivered)
	}
	if sums["injected"] != net.Stats.Injected {
		t.Errorf("CSV injected sum = %d, want %d", sums["injected"], net.Stats.Injected)
	}
}

// sumCSVColumns sums every numeric column of a header-led CSV by name.
func sumCSVColumns(data string) (map[string]uint64, error) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("CSV has no data rows")
	}
	names := strings.Split(lines[0], ",")
	sums := make(map[string]uint64, len(names))
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(names) {
			return nil, fmt.Errorf("row has %d fields, header has %d", len(fields), len(names))
		}
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				continue // at_ps may be fractional for gatesim exports
			}
			sums[names[i]] += v
		}
	}
	return sums, nil
}
