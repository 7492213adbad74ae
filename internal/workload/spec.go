// Package workload is the multi-tenant service layer on top of
// netsim.Network: named tenants generate open-loop request *flows* (arrival
// process × heavy-tailed size distribution), each flow is admitted or
// rejected by an admission policy, routed to a destination by a routing
// policy, packetized onto the existing injector path, and accounted into a
// per-tenant SLO report (p50/p99/p99.9 flow-completion time, goodput,
// admission-reject rate).
//
// Determinism: every (tenant, source) pair owns a forked RNG stream — the
// same per-source discipline traffic.OpenLoop uses — and all flow state
// lives either on the source node's shard (generation, admission) or on the
// destination node's shard (completion accounting; possible because every
// packet of a flow shares one (src, dst) pair). The SLO report folds
// per-shard accumulators in a fixed order, so it is bit-identical for any
// shard count K.
//
// Every kind of choice a spec makes is a closed set, checked when the spec
// is parsed: arrival processes and size distributions here, admission and
// routing policies in the admission and routing sub-packages.
package workload

import (
	"encoding/json"
	"fmt"

	"baldur/internal/netsim"
	"baldur/internal/workload/admission"
	"baldur/internal/workload/routing"
)

// Spec is the declarative form of a multi-tenant workload: a named mix of
// tenants, each with an arrival process, a flow-size distribution and its
// admission/routing policies. Specs are pure data — the same spec value can
// drive any number of runs on any network without being mutated (defaults
// resolve into the driver, never back into the spec).
type Spec struct {
	Name string `json:"name"`
	// Seed roots every tenant's per-source RNG stream. 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// PacketSize is the wire packetization unit in bytes (default 512).
	PacketSize int `json:"packet_size,omitempty"`
	// LinkRateGbps is the per-node injection rate used for packet pacing
	// and token-bucket budgets (default 25, the paper's link rate).
	LinkRateGbps float64 `json:"link_rate_gbps,omitempty"`
	// DurationUS closes the arrival window: no flow arrives after this
	// much virtual time (default 100 µs). Flows in flight at the close
	// still drain and complete.
	DurationUS float64 `json:"duration_us,omitempty"`
	// MaxFlowsPerSource caps each (tenant, source) generator as a safety
	// net against runaway arrival rates (default 10000, 0 keeps the
	// default; the arrival window is the intended stop condition).
	MaxFlowsPerSource int `json:"max_flows_per_source,omitempty"`
	// ExactFCTCap bounds the per-tenant exact FCT sample retention used
	// for p50/p99/p99.9: up to this many completions per tenant keep raw
	// samples for exact rank-order quantiles; beyond it the report falls
	// back to log-bucket estimates (relative error at most
	// stats.MaxQuantileRelError, ~1.16%). Default 1<<16; -1 disables
	// exact retention entirely (always bucketed).
	ExactFCTCap int `json:"exact_fct_cap,omitempty"`

	Tenants []TenantSpec `json:"tenants"`
}

// TenantSpec describes one tenant of the mix.
type TenantSpec struct {
	Name    string      `json:"name"`
	Arrival ArrivalSpec `json:"arrival"`
	Size    SizeSpec    `json:"size"`
	// Admission defaults to {"policy": "always"}; Routing to
	// {"policy": "uniform"}.
	Admission PolicySpec `json:"admission,omitempty"`
	Routing   PolicySpec `json:"routing,omitempty"`
}

// PolicySpec names an admission or routing policy and its parameters;
// the admission and routing packages list the names and what each reads.
type PolicySpec struct {
	Policy string `json:"policy,omitempty"`
	Params Params `json:"params,omitempty"`
}

// Params carries a policy's free parameters from the JSON spec.
type Params map[string]float64

// ArrivalSpec selects a per-source flow arrival process.
type ArrivalSpec struct {
	// Process is "poisson" or "mmpp" (2-state Markov-modulated Poisson:
	// a base state and a burst state with exponential dwell times).
	Process string `json:"process"`
	// RateFPS is the per-source arrival rate in flows per second
	// (the base-state rate for mmpp).
	RateFPS float64 `json:"rate_fps"`
	// BurstRateFPS and the dwell times configure the mmpp burst state.
	BurstRateFPS float64 `json:"burst_rate_fps,omitempty"`
	// DwellUS is the mean sojourn in the base state, BurstDwellUS in the
	// burst state, both in microseconds (defaults 100 and 10).
	DwellUS      float64 `json:"dwell_us,omitempty"`
	BurstDwellUS float64 `json:"burst_dwell_us,omitempty"`
	// DiurnalAmp, in [0, 1), superimposes a sinusoidal rate envelope
	// rate(t) = rate · (1 + amp·sin(2πt/period)) via Lewis-Shedler
	// thinning; DiurnalPeriodUS is the period (default 1000 µs). Amp 0
	// disables the envelope.
	DiurnalAmp      float64 `json:"diurnal_amp,omitempty"`
	DiurnalPeriodUS float64 `json:"diurnal_period_us,omitempty"`
}

// SizeSpec selects a flow-size distribution.
type SizeSpec struct {
	// Dist is "pareto" (bounded Pareto), "lognormal" or "fixed".
	Dist string `json:"dist"`
	// Alpha, MinBytes, MaxBytes parameterize the bounded Pareto
	// (defaults: 1.2, 512, 1 MiB — a heavy DCN-like tail).
	Alpha    float64 `json:"alpha,omitempty"`
	MinBytes int64   `json:"min_bytes,omitempty"`
	MaxBytes int64   `json:"max_bytes,omitempty"`
	// MuLog/SigmaLog parameterize the lognormal (of ln bytes); MaxBytes
	// caps it when set.
	MuLog    float64 `json:"mu_log,omitempty"`
	SigmaLog float64 `json:"sigma_log,omitempty"`
	// Bytes is the fixed size for "fixed".
	Bytes int64 `json:"bytes,omitempty"`
}

// ParseSpec decodes and validates a workload spec from JSON.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("workload: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the whole spec: its structure, every arrival process,
// size distribution and policy name, and every policy parameter. What
// depends on the network is left to Attach: a hotspot target must be one
// of its nodes.
func (s Spec) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("workload: spec %q has no tenants", s.Name)
	}
	if len(s.Tenants) > maxTenants {
		return fmt.Errorf("workload: spec %q has %d tenants; flow ids hold at most %d", s.Name, len(s.Tenants), maxTenants)
	}
	if s.PacketSize < 0 || s.LinkRateGbps < 0 || s.DurationUS < 0 {
		return fmt.Errorf("workload: spec %q: negative packet_size/link_rate/duration", s.Name)
	}
	if s.MaxFlowsPerSource < 0 || int64(s.MaxFlowsPerSource) > maxFlowsPerSource {
		return fmt.Errorf("workload: spec %q: max_flows_per_source %d outside [0, %d]", s.Name, s.MaxFlowsPerSource, maxFlowsPerSource)
	}
	r := s.resolved() // unnamed policies, dwells and the window take their defaults
	seen := map[string]bool{}
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("workload: tenant %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("workload: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if err := t.Arrival.validate(); err != nil {
			return fmt.Errorf("workload: tenant %q: %w", t.Name, err)
		}
		if a := r.Tenants[i].Arrival; a.Process == "mmpp" {
			dwell := min(a.DwellUS, a.BurstDwellUS)
			if n := r.DurationUS / dwell; n > maxDwellsPerWindow {
				return fmt.Errorf("workload: tenant %q: duration_us %g over mmpp dwell %g us is %g mean dwells, above the bound of %g",
					t.Name, r.DurationUS, dwell, n, maxDwellsPerWindow)
			}
		}
		if err := t.Size.validate(); err != nil {
			return fmt.Errorf("workload: tenant %q: %w", t.Name, err)
		}
		if err := admission.Check(r.Tenants[i].Admission.Policy, t.Admission.Params); err != nil {
			return fmt.Errorf("workload: tenant %q: %w", t.Name, err)
		}
		if err := routing.Check(r.Tenants[i].Routing.Policy, t.Routing.Params); err != nil {
			return fmt.Errorf("workload: tenant %q: %w", t.Name, err)
		}
	}
	return nil
}

// Arrival gaps and dwells are drawn on the picosecond clock. A positive
// rate below minRateFPS or a dwell above maxDwellUS makes draws that
// overflow it into negative times, and a dwell below minDwellUS rounds to
// 0 ps, where an mmpp state ends before it can emit a flow. An mmpp draw
// steps once per state change up to the window's end, so a window of more
// than maxDwellsPerWindow mean dwells of the shorter state is refused.
const (
	minRateFPS         = 1e-3 // one flow per 1000 s
	minDwellUS         = 1e-6 // 1 ps
	maxDwellUS         = 1e9  // 1000 s
	maxDwellsPerWindow = 1e5
)

func (a ArrivalSpec) validate() error {
	switch a.Process {
	case "poisson":
		if a.RateFPS < minRateFPS {
			return fmt.Errorf("poisson arrival needs rate_fps >= %g", minRateFPS)
		}
	case "mmpp":
		if a.RateFPS < 0 || a.BurstRateFPS < 0 || a.RateFPS+a.BurstRateFPS == 0 {
			return fmt.Errorf("mmpp arrival needs a positive rate in at least one state")
		}
		for _, r := range []float64{a.RateFPS, a.BurstRateFPS} {
			if r > 0 && r < minRateFPS {
				return fmt.Errorf("mmpp rate %g is below %g flows/s", r, minRateFPS)
			}
		}
		for _, d := range []float64{a.DwellUS, a.BurstDwellUS} {
			if d != 0 && (d < minDwellUS || d > maxDwellUS) { // 0 takes the default
				return fmt.Errorf("mmpp dwell %g us outside [%g, %g]", d, minDwellUS, maxDwellUS)
			}
		}
	default:
		return fmt.Errorf("unknown arrival process %q (poisson, mmpp)", a.Process)
	}
	if a.DiurnalAmp < 0 || a.DiurnalAmp >= 1 {
		return fmt.Errorf("diurnal_amp must be in [0, 1)")
	}
	if a.DiurnalPeriodUS < 0 {
		return fmt.Errorf("diurnal_period_us must be non-negative")
	}
	return nil
}

func (z SizeSpec) validate() error {
	switch z.Dist {
	case "pareto":
		if z.Alpha < 0 {
			return fmt.Errorf("pareto alpha must be positive")
		}
		if z.MinBytes < 0 || z.MaxBytes < 0 {
			return fmt.Errorf("pareto bounds must be non-negative")
		}
		if z.MinBytes > 0 && z.MaxBytes > 0 && z.MinBytes >= z.MaxBytes {
			return fmt.Errorf("pareto needs min_bytes < max_bytes")
		}
	case "lognormal":
		if z.SigmaLog < 0 {
			return fmt.Errorf("lognormal sigma_log must be non-negative")
		}
	case "fixed":
		if z.Bytes <= 0 {
			return fmt.Errorf("fixed size needs bytes > 0")
		}
	default:
		return fmt.Errorf("unknown size dist %q (pareto, lognormal, fixed)", z.Dist)
	}
	return nil
}

// resolved is the spec with every default filled in, used internally by the
// driver (the caller's Spec value is never written to).
func (s Spec) resolved() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.PacketSize == 0 {
		s.PacketSize = netsim.PacketSize
	}
	if s.LinkRateGbps == 0 {
		s.LinkRateGbps = 25
	}
	if s.DurationUS == 0 {
		s.DurationUS = 100
	}
	if s.MaxFlowsPerSource == 0 {
		s.MaxFlowsPerSource = 10000
	}
	if s.ExactFCTCap == 0 {
		s.ExactFCTCap = 1 << 16
	}
	ts := make([]TenantSpec, len(s.Tenants))
	copy(ts, s.Tenants)
	for i := range ts {
		if ts[i].Admission.Policy == "" {
			ts[i].Admission.Policy = "always"
		}
		if ts[i].Routing.Policy == "" {
			ts[i].Routing.Policy = "uniform"
		}
		a := &ts[i].Arrival
		if a.Process == "mmpp" {
			if a.DwellUS == 0 {
				a.DwellUS = 100
			}
			if a.BurstDwellUS == 0 {
				a.BurstDwellUS = 10
			}
		}
		if a.DiurnalAmp > 0 && a.DiurnalPeriodUS == 0 {
			a.DiurnalPeriodUS = 1000
		}
		z := &ts[i].Size
		if z.Dist == "pareto" {
			if z.Alpha == 0 {
				z.Alpha = 1.2
			}
			if z.MinBytes == 0 {
				z.MinBytes = 512
			}
			if z.MaxBytes == 0 {
				z.MaxBytes = 1 << 20
			}
		}
		if z.Dist == "lognormal" && z.MuLog == 0 && z.SigmaLog == 0 {
			// ln N(9, 1.5²): median ~8 KB with a fat right tail.
			z.MuLog, z.SigmaLog = 9, 1.5
		}
	}
	s.Tenants = ts
	return s
}
