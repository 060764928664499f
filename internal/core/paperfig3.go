package core

import (
	"math"

	"repro/internal/xrand"
)

// This file transcribes the paper's Figure 3 sampler literally — the
// three-case decomposition of the arrival conditional with its explicit
// inverse-CDF formulas — as an independent cross-check of the generalized
// condSpec kernel (which the production sampler uses because it also
// handles the boundary cases Figure 3 assumes away: missing ρ(e), missing
// ρ⁻¹(π(e)), same-queue revisits, and the final-departure move).
//
// Notation (paper §3): resampling a_e with
//
//	µe   = µ_{q_e},  µπ = µ_{q_π(e)}
//	dρ   = d_{ρ(e)}        (previous departure at e's queue)
//	aN   = a_{ρ⁻¹(π(e))}   (next arrival at π(e)'s queue)
//	L    = max(a_{π(e)}, d_{ρ(π(e))}, a_{ρ(e)})
//	U    = min(d_e, a_{ρ⁻¹(e)}, d_{ρ⁻¹(π(e))})
//	A    = min(aN, dρ), B = max(aN, dρ)
//
// and the unnormalized density
//
//	g(a) = exp{−µe(d_e − max(a, dρ)) − µπ(a − C) − µπ(dN − max(a, aN))}.
//
// The three pieces (L,A), (A,B), (B,U) have slopes −µπ, then either 0
// (when dρ ≥ aN) or µe−µπ (when dρ < aN), then µe. Z1..Z3 are their
// masses; each piece is drawn by the paper's closed-form inverse CDF
// (Eq. 3–4, with δµ := µπ − µe so that TrExp(|δµ|) is oriented per Eq. 4).
type fig3Scenario struct {
	mue, mupi float64
	drho, aN  float64
	l, u      float64
}

// samplePaperFig3 draws one value of a_e. All computation happens in
// coordinates shifted by L so the literal exponentials cannot overflow for
// scenarios far from the origin.
func samplePaperFig3(r *xrand.RNG, sc fig3Scenario) float64 {
	l, u := 0.0, sc.u-sc.l
	drho, aN := sc.drho-sc.l, sc.aN-sc.l
	a := math.Min(aN, drho)
	b := math.Max(aN, drho)
	if a < l {
		a = l
	}
	if b > u {
		b = u
	}
	if b < a {
		b = a
	}
	mue, mupi := sc.mue, sc.mupi

	// Piece masses, each anchored by the (shift-invariant) continuity of
	// log g: slope −µπ on (l,a), mid on (a,b), +µe on (b,u).
	mid := 0.0 // slope when dρ ≥ aN
	if drho > aN {
		mid = 0 // term3 crossed first: −µπ + µπ = 0
	} else {
		mid = mue - mupi // term1 crossed first
	}
	// log g relative to g(l) = 1.
	logAtA := -mupi * (a - l)
	logAtB := logAtA + mid*(b-a)
	logZ1 := logIntExpAnchored(-mupi, l, a, 0)
	logZ2 := logIntExpAnchored(mid, a, b, logAtA)
	logZ3 := logIntExpAnchored(mue, b, u, logAtB)
	m := math.Max(logZ1, math.Max(logZ2, logZ3))
	w1 := math.Exp(logZ1 - m)
	w2 := math.Exp(logZ2 - m)
	w3 := math.Exp(logZ3 - m)
	total := w1 + w2 + w3

	v := r.Float64()
	pick := r.Float64() * total
	var x float64
	switch {
	case pick < w1:
		// Paper Eq. (3), first case: inverse CDF of exp(−µπ a) on (l,a).
		x = -math.Log(math.Exp(-mupi*l)+v*(math.Exp(-mupi*a)-math.Exp(-mupi*l))) / mupi
	case pick < w1+w2:
		// Paper Eq. (4).
		delta := mupi - mue
		switch {
		case drho >= aN || delta == 0:
			x = a + v*(b-a)
		case delta > 0:
			x = a + r.TruncExp(math.Abs(delta), b-a)
		default:
			x = b - r.TruncExp(math.Abs(delta), b-a)
		}
	default:
		// Paper Eq. (3), third case: inverse CDF of exp(µe a) on (b,u).
		x = math.Log(math.Exp(mue*b)+v*(math.Exp(mue*u)-math.Exp(mue*b))) / mue
	}
	if x < l {
		x = l
	}
	if x > u {
		x = u
	}
	return x + sc.l
}

// logIntExpAnchored returns log ∫_lo^hi exp(f0 + m·(x−lo)) dx, or -Inf for
// an empty interval.
func logIntExpAnchored(m, lo, hi, f0 float64) float64 {
	if !(hi > lo) {
		return math.Inf(-1)
	}
	return f0 + logIntExp(m, hi-lo)
}

// logIntExp returns log ∫_0^w exp(m·x) dx for w > 0 (possibly +Inf with
// m < 0), matching internal/piecewise.
func logIntExp(m, w float64) float64 {
	if math.IsInf(w, 1) {
		return -math.Log(-m)
	}
	mw := m * w
	switch {
	case mw == 0:
		return math.Log(w)
	case mw > 0:
		return mw + math.Log(-math.Expm1(-mw)/m)
	default:
		return math.Log(math.Expm1(mw) / m)
	}
}
