package twin

import "math"

// rhoCap bounds the utilization fed to steady-state waiting formulas. An
// open-loop run at rho >= 1 has no steady state; the transient-overload term
// (transientWait) models the backlog growth instead, and capping here keeps
// every formula finite and monotone in offered load.
const rhoCap = 0.98

// md1Wait returns the mean waiting time of an M/D/1 queue with utilization
// rho and deterministic service time (Pollaczek-Khinchine: W = rho*S /
// (2(1-rho))).
func md1Wait(rho, service float64) float64 {
	if rho <= 0 {
		return 0
	}
	r := math.Min(rho, rhoCap)
	return r * service / (2 * (1 - r))
}

// erlangB returns the Erlang loss probability B(c, a) for c servers offered
// a erlangs, via the standard numerically stable recurrence.
func erlangB(c int, a float64) float64 {
	if a <= 0 || c < 1 {
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// erlangC returns the probability of queueing in an M/M/c system offered a
// erlangs (Erlang's C formula, expressed through B).
func erlangC(c int, a float64) float64 {
	if a <= 0 || c < 1 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	b := erlangB(c, a)
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// mdcWait returns the mean waiting time of an M/D/c queue offered a erlangs
// of deterministic-service work, via the Allen-Cunneen approximation:
// deterministic service halves the M/M/c wait (scv = 0 => (1+scv)/2 = 1/2).
func mdcWait(c int, a, service float64) float64 {
	if a <= 0 || c < 1 {
		return 0
	}
	cap := float64(c) * rhoCap
	if a > cap {
		a = cap
	}
	return erlangC(c, a) * service / (float64(c) - a) / 2
}

// fsFactor discounts a pooled queue's wait for a finite feeder population.
// Each of the F feeding flows is serialized at its origin, so it contributes
// at most one packet to the pool at a time; a pool fed by F <= c flows can
// never build a queue, and the discount fades as F grows past c.
func fsFactor(F, c int) float64 {
	if F <= c {
		return 0
	}
	return 1 - float64(c)/float64(F)
}

// engsetLoss returns the call congestion (probability that an arriving
// packet finds all servers busy) of a finite-source loss system: S feeding
// flows, c servers, per-source busy fraction y. For S <= c it is exactly 0 —
// fewer feeders than wires can never overflow, which is why the stage-0
// switches of the multi-butterfly (two host wires, m >= 2 output wires)
// never drop. The call congestion uses S-1 sources in the state weights
// (the arriving flow does not compete with itself).
func engsetLoss(S, c int, y float64) float64 {
	if S <= c || c < 1 || y <= 0 {
		return 0
	}
	if y >= 1 {
		y = 1 - 1e-9
	}
	alpha := y / (1 - y)
	term, sum, top := 1.0, 1.0, 0.0
	for j := 1; j <= c; j++ {
		term *= alpha * float64(S-j) / float64(j)
		if term <= 0 {
			term = 0
		}
		sum += term
		if j == c {
			top = term
		}
	}
	return top / sum
}

// tailDecay returns the exponential decay time constant theta of the
// waiting-time tail of an M/D/c queue: P(W > t) ~ C*exp(-t/theta). The
// decay rate of M/D/1 solves rho*(e^u - 1) = u with theta = service/u
// (Cramér root of the Lindley recursion); pooling c servers drains the
// shared queue c times faster.
func tailDecay(c int, rho, service float64) float64 {
	if rho <= 0 || service <= 0 {
		return 0
	}
	r := math.Min(rho, rhoCap)
	// Newton iteration on the convex f(u) = r*(e^u - 1) - u, seeded at
	// u = 2 ln(1/r): right of f's minimum at ln(1/r), so the slope is
	// positive and the iteration converges to the positive root for every
	// r (the seed is the heavy-traffic root 2(1-r) as r -> 1).
	u := -2 * math.Log(r)
	for i := 0; i < 40; i++ {
		eu := math.Exp(u)
		f := r*(eu-1) - u
		df := r*eu - 1
		if df <= 0 {
			break
		}
		next := u - f/df
		if next <= 0 {
			next = u / 2
		}
		if math.Abs(next-u) < 1e-14 {
			u = next
			break
		}
		u = next
	}
	return service / (u * float64(c))
}

// relaxK calibrates the finite-run relaxation time against the packet
// engine (see finiteWait).
const relaxK = 3.0

// finiteWait tempers a steady-state mean wait for a queue that is only
// observed over a finite injection window T, starting empty. Near
// saturation the workload's relaxation time tau = W/(relaxK*(1-rho))
// exceeds T and the run never reaches the steady-state mean; the
// reflected-random-walk window average is W * (1 - (1-e^-x)/x) with
// x = T/tau. Far from saturation x is huge and the steady value stands.
// Past saturation the steady formulas are evaluated at rhoCap and the
// overload growth is modelled separately (transientWait), so the tempering
// clamps rho to the cap instead of switching off.
func finiteWait(w, rho, T float64) float64 {
	if w <= 0 || T <= 0 {
		return w
	}
	if rho > rhoCap {
		rho = rhoCap
	}
	tau := w / (relaxK * (1 - rho))
	x := T / tau
	if x > 30 {
		return w
	}
	return w * (1 - (1-math.Exp(-x))/x)
}
