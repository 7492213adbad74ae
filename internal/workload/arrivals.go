package workload

import (
	"math"

	"baldur/internal/sim"
)

// arrivalProc is one source's flow arrival process: Next returns the time of
// the next arrival strictly after now, or some time after end once the
// process has passed end without one, consuming draws only from rng. Every
// arrival at or before end takes the same draws whatever end is, so the
// window bounds the work of a draw without changing what it returns. The
// draw sequence per instance is fixed by the spec and seed alone, never by
// shard count — the backbone of the K-invariance argument.
type arrivalProc interface {
	Next(now, end sim.Time, rng *sim.RNG) sim.Time
}

// envelope is the optional diurnal rate modulation: arrivals are generated
// at the peak rate and thinned (Lewis-Shedler) with acceptance probability
// rate(t)/rate_peak = (1 + amp·sin(2πt/period)) / (1 + amp).
type envelope struct {
	amp    float64
	period float64 // seconds
}

// peak is the factor the base process's rate is multiplied by so that
// thinning can only ever reduce it.
func (e envelope) peak() float64 {
	if e.amp <= 0 {
		return 1
	}
	return 1 + e.amp
}

// accept decides whether a candidate arrival at t survives thinning. A zero
// envelope accepts without consuming a draw, so specs without a diurnal
// term keep the exact draw sequence they had before envelopes existed.
func (e envelope) accept(t sim.Time, rng *sim.RNG) bool {
	if e.amp <= 0 {
		return true
	}
	ts := sim.Duration(t).Seconds()
	p := (1 + e.amp*math.Sin(2*math.Pi*ts/e.period)) / (1 + e.amp)
	return rng.Float64() < p
}

// poissonProc is a (possibly diurnally modulated) Poisson process.
type poissonProc struct {
	mean sim.Duration // mean inter-arrival at the peak rate
	env  envelope
}

func (p *poissonProc) Next(now, end sim.Time, rng *sim.RNG) sim.Time {
	for {
		now = now.Add(rng.ExpDuration(p.mean))
		if now > end || p.env.accept(now, rng) {
			return now
		}
	}
}

// mmppProc is a 2-state Markov-modulated Poisson process: exponential dwell
// in each state, Poisson arrivals at the state's rate. State transitions
// and arrivals race as competing exponentials, so the whole trajectory is a
// deterministic function of the rng stream.
type mmppProc struct {
	mean  [2]sim.Duration // mean inter-arrival per state at peak (0 = silent state)
	dwell [2]sim.Duration // mean sojourn per state
	state int
	env   envelope
}

func (m *mmppProc) Next(now, end sim.Time, rng *sim.RNG) sim.Time {
	for now <= end {
		dwell := rng.ExpDuration(m.dwell[m.state])
		if mean := m.mean[m.state]; mean > 0 {
			gap := rng.ExpDuration(mean)
			if gap < dwell {
				now = now.Add(gap)
				if now > end || m.env.accept(now, rng) {
					return now
				}
				continue
			}
		}
		now = now.Add(dwell)
		m.state = 1 - m.state
	}
	return now
}

// newArrival builds the arrival process for a validated, resolved spec.
func newArrival(a ArrivalSpec) arrivalProc {
	env := envelope{amp: a.DiurnalAmp, period: a.DiurnalPeriodUS * 1e-6}
	switch a.Process {
	case "poisson":
		return &poissonProc{mean: meanOfRate(a.RateFPS * env.peak()), env: env}
	case "mmpp":
		return &mmppProc{
			mean: [2]sim.Duration{
				meanOfRate(a.RateFPS * env.peak()),
				meanOfRate(a.BurstRateFPS * env.peak()),
			},
			dwell: [2]sim.Duration{
				sim.Microseconds(a.DwellUS),
				sim.Microseconds(a.BurstDwellUS),
			},
			env: env,
		}
	}
	panic("workload: unvalidated arrival process " + a.Process)
}

// meanOfRate converts flows-per-second into a mean inter-arrival duration
// (0 for a silent state).
func meanOfRate(fps float64) sim.Duration {
	if fps <= 0 {
		return 0
	}
	return sim.Duration(1e12/fps + 0.5)
}
