package exp

import (
	"os"
	"strings"
	"testing"

	"baldur/internal/check"
	"baldur/internal/faults"
	"baldur/internal/workload"
)

// testWorkloadSpec is the two-tenant mix the determinism tests drive:
// Poisson + diurnal envelope on one tenant, bursty MMPP on the other,
// heavy-tailed sizes on both, a token bucket rejecting part of tenant one.
func testWorkloadSpec() workload.Spec {
	return workload.Spec{
		Name:       "test-mix",
		Seed:       7,
		DurationUS: 20,
		Tenants: []workload.TenantSpec{
			{
				Name:    "frontend",
				Arrival: workload.ArrivalSpec{Process: "poisson", RateFPS: 5e5, DiurnalAmp: 0.4, DiurnalPeriodUS: 10},
				Size:    workload.SizeSpec{Dist: "pareto", Alpha: 1.3, MinBytes: 512, MaxBytes: 32768},
				Admission: workload.PolicySpec{
					Policy: "token_bucket",
					Params: workload.Params{"rate_gbps": 40, "burst_kb": 16},
				},
			},
			{
				Name:    "batch",
				Arrival: workload.ArrivalSpec{Process: "mmpp", RateFPS: 1e5, BurstRateFPS: 1e6, DwellUS: 8, BurstDwellUS: 2},
				Size:    workload.SizeSpec{Dist: "lognormal", MuLog: 8, SigmaLog: 1.0, MaxBytes: 65536},
				Routing: workload.PolicySpec{Policy: "permutation"},
			},
		},
	}
}

func testWorkloadScale(shards int) Scale {
	return Scale{
		Name:           "workload-test",
		Nodes:          16,
		PacketsPerNode: 1,
		DragonflyP:     2,
		FatTreeK:       4,
		Seed:           1,
		Shards:         shards,
	}
}

// TestWorkloadShardCountInvariant is the tentpole determinism guarantee for
// the service layer: the full per-tenant SLO report — counts, reject rates,
// p50/p99/p99.9/max FCT, goodput, rendered at full float precision — must
// be byte-identical for K in {1, 2, 4} on baldur and dragonfly, with the
// conservation auditor armed.
func TestWorkloadShardCountInvariant(t *testing.T) {
	spec := testWorkloadSpec()
	for _, network := range []string{"baldur", "dragonfly"} {
		var ref *SLOReport
		var refCSV string
		for _, k := range []int{1, 2, 4} {
			sc := testWorkloadScale(k)
			sc.Audit = &check.Options{}
			rep, err := RunWorkload(network, spec, sc)
			if err != nil {
				t.Fatalf("%s K=%d: %v", network, k, err)
			}
			if !rep.Finished {
				t.Fatalf("%s K=%d: run hit the safety horizon", network, k)
			}
			if rep.Admitted == 0 || rep.Rejected == 0 {
				t.Fatalf("%s K=%d: admitted=%d rejected=%d — construction broke, the mix must both admit and reject",
					network, k, rep.Admitted, rep.Rejected)
			}
			csv := rep.CSV()
			if ref == nil {
				ref, refCSV = rep, csv
				continue
			}
			if csv != refCSV {
				t.Errorf("%s: SLO report diverges between K=%d and K=1:\n--- K=1\n%s--- K=%d\n%s",
					network, k, refCSV, k, csv)
			}
			if rep.Injected != ref.Injected || rep.Delivered != ref.Delivered || rep.Events != ref.Events {
				t.Errorf("%s K=%d: ledger diverges: injected/delivered/events %d/%d/%d vs %d/%d/%d",
					network, k, rep.Injected, rep.Delivered, rep.Events, ref.Injected, ref.Delivered, ref.Events)
			}
		}
	}
}

// TestWorkloadAdmissionReconciliation pins the reject accounting against
// the network's conservation ledger: every arrival is admitted or rejected,
// every admitted packet is injected (RunWorkload fails the cell otherwise),
// and a reject_all tenant injects nothing while a full-admission tenant
// rejects nothing.
func TestWorkloadAdmissionReconciliation(t *testing.T) {
	spec := workload.Spec{
		Name:       "reconcile",
		Seed:       3,
		DurationUS: 10,
		Tenants: []workload.TenantSpec{
			{
				Name:      "open",
				Arrival:   workload.ArrivalSpec{Process: "poisson", RateFPS: 2e5},
				Size:      workload.SizeSpec{Dist: "fixed", Bytes: 2048},
				Admission: workload.PolicySpec{Policy: "always"},
			},
			{
				Name:      "closed",
				Arrival:   workload.ArrivalSpec{Process: "poisson", RateFPS: 2e5},
				Size:      workload.SizeSpec{Dist: "fixed", Bytes: 2048},
				Admission: workload.PolicySpec{Policy: "reject_all"},
			},
		},
	}
	sc := testWorkloadScale(2)
	sc.Audit = &check.Options{}
	rep, err := RunWorkload("baldur", spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrived != rep.Admitted+rep.Rejected {
		t.Errorf("arrived %d != admitted %d + rejected %d", rep.Arrived, rep.Admitted, rep.Rejected)
	}
	if rep.Injected != rep.AdmittedPackets {
		t.Errorf("injected %d != admitted packets %d", rep.Injected, rep.AdmittedPackets)
	}
	open, closed := &rep.Tenants[0], &rep.Tenants[1]
	if open.Rejected != 0 || open.Admitted == 0 {
		t.Errorf("always-admit tenant: admitted=%d rejected=%d", open.Admitted, open.Rejected)
	}
	if closed.Admitted != 0 || closed.Rejected == 0 || closed.RejectRate != 1 {
		t.Errorf("reject-all tenant: admitted=%d rejected=%d rate=%v", closed.Admitted, closed.Rejected, closed.RejectRate)
	}
	if closed.Completed != 0 || closed.GoodputGbps != 0 {
		t.Errorf("reject-all tenant completed %d flows at %v Gbps", closed.Completed, closed.GoodputGbps)
	}
	// Fixed 2048 B flows packetize to 4 × 512 B packets each.
	if want := open.Admitted * 4; open.AdmittedPackets != want {
		t.Errorf("admitted packets %d, want %d (4 per 2048 B flow)", open.AdmittedPackets, want)
	}
}

// TestWorkloadSLOShape sanity-checks the report rows: quantiles are ordered,
// exact under the cap, and goodput is positive for completing tenants.
func TestWorkloadSLOShape(t *testing.T) {
	rep, err := RunWorkload("fattree", testWorkloadSpec(), testWorkloadScale(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Tenants {
		s := &rep.Tenants[i]
		if s.Completed == 0 {
			t.Fatalf("tenant %s completed no flows", s.Tenant)
		}
		if !(s.FCTp50NS <= s.FCTp99NS && s.FCTp99NS <= s.FCTp999NS && s.FCTp999NS <= s.FCTMaxNS) {
			t.Errorf("tenant %s: quantiles out of order: p50=%v p99=%v p99.9=%v max=%v",
				s.Tenant, s.FCTp50NS, s.FCTp99NS, s.FCTp999NS, s.FCTMaxNS)
		}
		if !s.ExactQuantiles {
			t.Errorf("tenant %s: %d completions under the default cap should be exact", s.Tenant, s.Completed)
		}
		if s.GoodputGbps <= 0 {
			t.Errorf("tenant %s: goodput %v", s.Tenant, s.GoodputGbps)
		}
	}
}

// TestWorkloadExampleSpec keeps the committed example spec loadable and
// shaped per the acceptance criteria: ≥2 tenants, Poisson + MMPP arrivals,
// heavy-tailed sizes, at least one admission policy beyond always-admit.
func TestWorkloadExampleSpec(t *testing.T) {
	data, err := os.ReadFile("../../examples/workloads/mix.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Tenants) < 2 {
		t.Fatalf("example spec has %d tenants, want >= 2", len(spec.Tenants))
	}
	procs := map[string]bool{}
	dists := map[string]bool{}
	admission := false
	for _, ten := range spec.Tenants {
		procs[ten.Arrival.Process] = true
		dists[ten.Size.Dist] = true
		if ten.Admission.Policy != "" && ten.Admission.Policy != "always" {
			admission = true
		}
	}
	if !procs["poisson"] || !procs["mmpp"] {
		t.Errorf("example spec arrivals %v, want poisson and mmpp", procs)
	}
	if !dists["pareto"] && !dists["lognormal"] {
		t.Errorf("example spec sizes %v, want a heavy-tailed distribution", dists)
	}
	if !admission {
		t.Error("example spec exercises no admission policy")
	}
}

// TestCampaignExampleSpecWorkload keeps the committed SLO campaign example
// loadable and workload-driven.
func TestCampaignExampleSpecWorkload(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaigns/slo.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseCampaign(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workload == nil {
		t.Fatal("example SLO campaign has no workload spec")
	}
	if err := spec.Workload.Validate(); err != nil {
		t.Errorf("example SLO campaign workload invalid: %v", err)
	}
	if len(spec.Scripts) == 0 {
		t.Error("example SLO campaign exercises no fault script")
	}
}

// TestCampaignParallelSerialIdentical: the parallel cell runner must render
// byte-identical reports to the serial one (MaxParallel 1), including
// baseline normalization, whose fold is order-sensitive.
func TestCampaignParallelSerialIdentical(t *testing.T) {
	spec := CampaignSpec{
		Name: "par-vs-serial",
		Grid: CampaignGrid{
			Nets:           []string{"baldur", "dragonfly"},
			NodesExp:       []int{3},
			LoadsPct:       []int{50},
			PacketsPerNode: 8,
			Shards:         []int{1, 2},
		},
		Seeds:       []uint64{1, 2},
		HorizonUS:   500,
		SliceUS:     0.5,
		Audit:       true,
		MaxAttempts: 16,
		Scripts:     []faults.ScriptSpec{flapScript()},
	}
	serial := spec
	serial.MaxParallel = 1
	parallel := spec
	parallel.MaxParallel = 8
	repS, err := RunCampaign(serial)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := RunCampaign(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := repS.CSV(), repP.CSV(); s != p {
		t.Errorf("parallel campaign CSV diverges from serial:\n--- serial\n%s--- parallel\n%s", s, p)
	}
	if s, p := repS.AggregateCSV(), repP.AggregateCSV(); s != p {
		t.Errorf("parallel campaign aggregate CSV diverges from serial:\n--- serial\n%s--- parallel\n%s", s, p)
	}
}

// TestCampaignWorkloadCells: a campaign can use the service workload as its
// traffic source; cells inject tenant flows, the availability machinery
// observes them, and shard invariance holds (RunCampaign enforces the
// fingerprint comparison internally).
func TestCampaignWorkloadCells(t *testing.T) {
	ws := testWorkloadSpec()
	ws.DurationUS = 10
	spec := CampaignSpec{
		Name: "workload-cells",
		Grid: CampaignGrid{
			Nets:           []string{"baldur"},
			NodesExp:       []int{3},
			LoadsPct:       []int{50},
			PacketsPerNode: 8,
			Shards:         []int{1, 2},
		},
		Seeds:       []uint64{1, 2},
		HorizonUS:   500,
		SliceUS:     0.5,
		Audit:       true,
		MaxAttempts: 16,
		Workload:    &ws,
		Scripts:     []faults.ScriptSpec{flapScript()},
	}
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Injected == 0 {
			t.Errorf("cell %s injected no workload traffic", c.Script)
		}
	}
	if !strings.Contains(rep.CSV(), "flap") {
		t.Error("workload campaign lost its script cells")
	}
}

// TestCampaignUnknownPolicyRefusedBeforeCells: a campaign whose workload
// names an unknown policy fails on the name before any cell runs. The
// grid's network does not exist, so a cell that ran would fail on that
// instead.
func TestCampaignUnknownPolicyRefusedBeforeCells(t *testing.T) {
	ws := testWorkloadSpec()
	ws.Tenants[1].Routing.Policy = "token_bucke"
	spec := CampaignSpec{
		Name:     "unknown-policy",
		Grid:     CampaignGrid{Nets: []string{"no-such-net"}},
		Workload: &ws,
	}
	_, err := RunCampaign(spec)
	if err == nil || !strings.Contains(err.Error(), `unknown routing policy "token_bucke"`) || strings.Contains(err.Error(), "no-such-net") {
		t.Fatalf("RunCampaign = %v, want the unknown policy refused before any cell", err)
	}
}
