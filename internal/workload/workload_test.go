package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"baldur/internal/elecnet"
	"baldur/internal/sim"
)

// TestHeavyTailSamplerGolden pins the samplers to per-seed golden values:
// the sampled workload is part of the simulator's reproducibility contract,
// so a silent change to the inverse-CDF math or the draw order is a
// regression even if the distribution stays "statistically the same".
func TestHeavyTailSamplerGolden(t *testing.T) {
	pareto := SizeSpec{Dist: "pareto", Alpha: 1.2, MinBytes: 512, MaxBytes: 1 << 20}
	logn := SizeSpec{Dist: "lognormal", MuLog: 9, SigmaLog: 1.5, MaxBytes: 1 << 20}
	golden := []struct {
		seed uint64
		spec SizeSpec
		want []int64
	}{
		{1, pareto, []int64{1408, 944, 1043, 774, 1385, 583}},
		{42, pareto, []int64{551, 761, 1323, 4413, 27753, 1740}},
		{1, logn, []int64{136844, 10772, 57133, 462, 15638, 2469}},
		{42, logn, []int64{2726, 5903, 11299, 17750, 16257, 24624}},
	}
	for _, g := range golden {
		s := newSizeSampler(g.spec)
		rng := sim.NewRNG(g.seed)
		for i, want := range g.want {
			if got := s.Sample(rng); got != want {
				t.Errorf("%s seed=%d draw %d: %d, want %d", g.spec.Dist, g.seed, i, got, want)
			}
		}
	}
}

// TestArrivalGolden pins the arrival processes the same way.
func TestArrivalGolden(t *testing.T) {
	poisson := ArrivalSpec{Process: "poisson", RateFPS: 1e6}
	mmpp := ArrivalSpec{Process: "mmpp", RateFPS: 2e5, BurstRateFPS: 4e6, DwellUS: 20, BurstDwellUS: 4}
	golden := []struct {
		seed uint64
		spec ArrivalSpec
		want []int64 // picoseconds
	}{
		{1, poisson, []int64{352510, 1005597, 1560539, 2498747, 2859461}},
		{42, poisson, []int64{2478571, 3448842, 3834441, 3912735, 3920965}},
		{1, mmpp, []int64{3265436, 7956474, 15411870, 15560553, 15571484}},
		{42, mmpp, []int64{4851356, 5242824, 5448048, 5582790, 5891675}},
	}
	for _, g := range golden {
		a := newArrival(g.spec)
		rng := sim.NewRNG(g.seed)
		var now sim.Time
		for i, want := range g.want {
			now = a.Next(now, sim.Time(math.MaxInt64), rng)
			if int64(now) != want {
				t.Errorf("%s seed=%d arrival %d: %d, want %d", g.spec.Process, g.seed, i, now, want)
			}
		}
	}
}

// TestParetoBounds: every draw of the bounded Pareto lies in [min, max].
func TestParetoBounds(t *testing.T) {
	s := newSizeSampler(SizeSpec{Dist: "pareto", Alpha: 1.1, MinBytes: 100, MaxBytes: 10000})
	rng := sim.NewRNG(3)
	for i := 0; i < 100000; i++ {
		b := s.Sample(rng)
		if b < 100 || b > 10000 {
			t.Fatalf("draw %d: %d outside [100, 10000]", i, b)
		}
	}
}

// TestDiurnalEnvelopeThins: a diurnal envelope must change (reduce vs the
// peak-rate process) the arrival count while keeping arrivals monotone.
func TestDiurnalEnvelopeThins(t *testing.T) {
	flat := newArrival(ArrivalSpec{Process: "poisson", RateFPS: 1e6})
	diurnal := newArrival(ArrivalSpec{Process: "poisson", RateFPS: 1e6, DiurnalAmp: 0.9, DiurnalPeriodUS: 10})
	count := func(a arrivalProc, seed uint64) int {
		rng := sim.NewRNG(seed)
		var now sim.Time
		end := sim.Time(0).Add(sim.Microseconds(100))
		n := 0
		for {
			next := a.Next(now, end, rng)
			if next <= now {
				t.Fatalf("arrival went backwards: %v -> %v", now, next)
			}
			now = next
			if now > end {
				return n
			}
			n++
		}
	}
	nf, nd := count(flat, 5), count(diurnal, 5)
	// Thinning against the peak rate 1.9e6 yields an average rate of 1e6
	// again, but the draw sequences must differ; just require both to be
	// plausibly Poisson-sized and distinct.
	if nf == 0 || nd == 0 || nf == nd {
		t.Errorf("flat=%d diurnal=%d arrivals: envelope had no effect", nf, nd)
	}
}

// TestSpecValidation exercises the error paths a hand-written spec hits.
// Each bad spec must be refused for the reason its want names, so a case
// cannot pass by tripping an unrelated check.
func TestSpecValidation(t *testing.T) {
	tenant := func(name string) TenantSpec {
		return TenantSpec{
			Name:    name,
			Arrival: ArrivalSpec{Process: "poisson", RateFPS: 1000},
			Size:    SizeSpec{Dist: "fixed", Bytes: 512},
		}
	}
	tenants := func(n int) []TenantSpec {
		ts := make([]TenantSpec, n)
		for i := range ts {
			ts[i] = tenant(fmt.Sprint(i))
		}
		return ts
	}
	withPolicies := func(admission, routing PolicySpec) []TenantSpec {
		ts := tenant("t")
		ts.Admission, ts.Routing = admission, routing
		return []TenantSpec{ts}
	}
	good := []Spec{
		{Name: "ok", Tenants: []TenantSpec{tenant("t")}},
		{Name: "every-policy", Tenants: []TenantSpec{
			{Name: "a", Arrival: tenant("").Arrival, Size: tenant("").Size,
				Admission: PolicySpec{Policy: "always"}, Routing: PolicySpec{Policy: "uniform"}},
			{Name: "b", Arrival: tenant("").Arrival, Size: tenant("").Size,
				Admission: PolicySpec{Policy: "reject_all"}, Routing: PolicySpec{Policy: "permutation"}},
			{Name: "c", Arrival: tenant("").Arrival, Size: tenant("").Size,
				Admission: PolicySpec{Policy: "token_bucket", Params: Params{"rate_gbps": 0, "burst_kb": 8}},
				// A target past any network's size is refused at Attach, not here.
				Routing: PolicySpec{Policy: "hotspot", Params: Params{"target": 1e6}}},
		}},
		{Name: "most-tenants", Tenants: tenants(maxTenants)},
		{Name: "most-flows", MaxFlowsPerSource: maxFlowsPerSource, Tenants: []TenantSpec{tenant("t")}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %q rejected: %v", s.Name, err)
		}
	}
	bad := []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "no-tenants"}, "no tenants"},
		{Spec{Name: "dup", Tenants: []TenantSpec{tenant("t"), tenant("t")}}, "duplicate"},
		{Spec{Name: "bad-arrival", Tenants: []TenantSpec{{
			Name: "t", Arrival: ArrivalSpec{Process: "weibull", RateFPS: 1}, Size: tenant("").Size,
		}}}, "weibull"},
		{Spec{Name: "bad-size", Tenants: []TenantSpec{{
			Name: "t", Arrival: tenant("").Arrival, Size: SizeSpec{Dist: "zipf"},
		}}}, "zipf"},
		{Spec{Name: "bad-amp", Tenants: []TenantSpec{{
			Name:    "t",
			Arrival: ArrivalSpec{Process: "poisson", RateFPS: 1, DiurnalAmp: 1.5},
			Size:    tenant("").Size,
		}}}, "diurnal_amp"},
		// Gaps and dwells that overflow the picosecond clock or round to 0.
		{Spec{Name: "slow-poisson", Tenants: []TenantSpec{{
			Name: "t", Arrival: ArrivalSpec{Process: "poisson", RateFPS: 1e-9}, Size: tenant("").Size,
		}}}, "rate_fps >= 0.001"},
		{Spec{Name: "slow-mmpp", Tenants: []TenantSpec{{
			Name: "t", Arrival: ArrivalSpec{Process: "mmpp", RateFPS: 1e5, BurstRateFPS: 1e-9}, Size: tenant("").Size,
		}}}, "mmpp rate 1e-09"},
		{Spec{Name: "zero-dwell", Tenants: []TenantSpec{{
			Name: "t", Arrival: ArrivalSpec{Process: "mmpp", RateFPS: 1, DwellUS: 1e-9, BurstDwellUS: 1e-9}, Size: tenant("").Size,
		}}}, "mmpp dwell 1e-09"},
		{Spec{Name: "huge-dwell", Tenants: []TenantSpec{{
			Name: "t", Arrival: ArrivalSpec{Process: "mmpp", RateFPS: 1, DwellUS: 1e300}, Size: tenant("").Size,
		}}}, "mmpp dwell 1e+300"},
		// A window of 1e7 one-picosecond dwells: each draw would step once
		// per state change.
		{Spec{Name: "dwells-per-window", DurationUS: 10, Tenants: []TenantSpec{{
			Name: "t", Arrival: ArrivalSpec{Process: "mmpp", RateFPS: 1, DwellUS: 1e-6, BurstDwellUS: 1e-6}, Size: tenant("").Size,
		}}}, "duration_us 10 over mmpp dwell 1e-06 us is 1e+07 mean dwells, above the bound of 100000"},
		{Spec{Name: "bad-pareto", Tenants: []TenantSpec{{
			Name:    "t",
			Arrival: tenant("").Arrival,
			Size:    SizeSpec{Dist: "pareto", MinBytes: 4096, MaxBytes: 512},
		}}}, "min_bytes < max_bytes"},
		// An unknown policy name is refused with the menu in the error.
		{Spec{Name: "unknown-admission", Tenants: withPolicies(PolicySpec{Policy: "token_bucke"}, PolicySpec{})},
			`"token_bucke" (always, reject_all, token_bucket)`},
		{Spec{Name: "unknown-routing", Tenants: withPolicies(PolicySpec{}, PolicySpec{Policy: "random"})},
			`"random" (uniform, permutation, hotspot)`},
		// A parameter the policy does not read, also on a defaulted policy.
		{Spec{Name: "typo-param", Tenants: withPolicies(
			PolicySpec{Policy: "token_bucket", Params: Params{"rate_gpbs": 5}}, PolicySpec{})}, `"rate_gpbs"`},
		{Spec{Name: "param-on-default", Tenants: withPolicies(
			PolicySpec{}, PolicySpec{Params: Params{"target": 3}})}, `"uniform" does not read`},
		{Spec{Name: "param-on-always", Tenants: withPolicies(
			PolicySpec{Policy: "always", Params: Params{"burst_kb": 1}}, PolicySpec{})}, `"always" does not read`},
		// Out-of-range parameters.
		{Spec{Name: "negative-rate", Tenants: withPolicies(
			PolicySpec{Policy: "token_bucket", Params: Params{"rate_gbps": -5}}, PolicySpec{})}, "rate_gbps -5"},
		{Spec{Name: "negative-burst", Tenants: withPolicies(
			PolicySpec{Policy: "token_bucket", Params: Params{"burst_kb": -1}}, PolicySpec{})}, "burst_kb -1"},
		{Spec{Name: "negative-target", Tenants: withPolicies(
			PolicySpec{}, PolicySpec{Policy: "hotspot", Params: Params{"target": -1}})}, "target -1"},
		{Spec{Name: "fractional-target", Tenants: withPolicies(
			PolicySpec{}, PolicySpec{Policy: "hotspot", Params: Params{"target": 2.5}})}, "target 2.5"},
		// Values flowID cannot encode: the tenant byte and the 32-bit
		// per-source sequence would wrap and merge distinct flows.
		{Spec{Name: "too-many-tenants", Tenants: tenants(maxTenants + 1)}, "at most 256"},
		{Spec{Name: "negative-flow-cap", MaxFlowsPerSource: -1, Tenants: []TenantSpec{tenant("t")}}, "max_flows_per_source -1"},
		{Spec{Name: "flow-cap-wraps", MaxFlowsPerSource: maxFlowsPerSource + 1, Tenants: []TenantSpec{tenant("t")}}, "max_flows_per_source 4294967296"},
	}
	for _, c := range bad {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: err = %v, want one naming %s", c.spec.Name, err, c.want)
		}
	}
}

// TestDwellBoundSpecAttaches: a spec with exactly maxDwellsPerWindow mean
// dwells in its window is accepted, and its first draws, which at 1 flow/s
// find no arrival and so step through the whole window, finish on 8 nodes.
func TestDwellBoundSpecAttaches(t *testing.T) {
	spec := Spec{Name: "at-cap", DurationUS: 10, Tenants: []TenantSpec{{
		Name:    "t",
		Arrival: ArrivalSpec{Process: "mmpp", RateFPS: 1, DwellUS: 1e-4, BurstDwellUS: 1e-4},
		Size:    SizeSpec{Dist: "fixed", Bytes: 512},
	}}}
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(elecnet.NewIdeal(8, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestSpecResolvedDoesNotMutate: building a driver must leave the caller's
// spec untouched (the OpenLoop receiver-mutation bug, class-proofed here).
func TestSpecResolvedDoesNotMutate(t *testing.T) {
	spec := Spec{Name: "immutability", Tenants: []TenantSpec{{
		Name:    "t",
		Arrival: ArrivalSpec{Process: "poisson", RateFPS: 1000},
		Size:    SizeSpec{Dist: "pareto"},
	}}}
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 0 || spec.PacketSize != 0 || spec.LinkRateGbps != 0 || spec.Tenants[0].Admission.Policy != "" || spec.Tenants[0].Size.Alpha != 0 {
		t.Errorf("New mutated the caller's spec: %+v", spec)
	}
	r := d.Spec()
	if r.Seed != 1 || r.PacketSize != 512 || r.LinkRateGbps != 25 || r.Tenants[0].Admission.Policy != "always" || r.Tenants[0].Size.Alpha != 1.2 {
		t.Errorf("resolved spec missing defaults: %+v", r)
	}
}

// TestFlowIDUnique: flow ids are distinct across tenants, sources and
// sequences, and never zero.
func TestFlowIDUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for tenant := int32(0); tenant < 3; tenant++ {
		for src := 0; src < 64; src++ {
			for seq := uint64(1); seq <= 4; seq++ {
				id := flowID(tenant, src, seq)
				if id == 0 {
					t.Fatalf("flowID(%d,%d,%d) = 0", tenant, src, seq)
				}
				if seen[id] {
					t.Fatalf("flowID(%d,%d,%d) = %#x collides", tenant, src, seq, id)
				}
				seen[id] = true
			}
		}
	}
}
