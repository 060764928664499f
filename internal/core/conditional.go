package core

import (
	"math"

	"repro/internal/xrand"
)

// condSpec is an allocation-free builder/sampler for the piecewise
// log-linear full conditionals of the Gibbs sampler. An arrival move has at
// most two interior breakpoints (the paper's A and B) and a departure move
// at most one, so fixed-size arrays suffice. internal/piecewise is the
// general reference implementation; tests assert the two agree.
type condSpec struct {
	lo, hi    float64 // support (hi may be +Inf)
	baseSlope float64
	nBreaks   int
	breakAt   [2]float64
	breakAdd  [2]float64 // slope increment when crossing breakAt upward
}

// reset initializes the spec to the interval (lo, hi) with the given base
// slope of the log density.
func (c *condSpec) reset(lo, hi, baseSlope float64) {
	c.lo, c.hi, c.baseSlope = lo, hi, baseSlope
	c.nBreaks = 0
}

// addTerm registers a log-density term whose slope increases by add for
// x > at. Points at or below lo fold into the base slope; points at or
// beyond hi are inert.
func (c *condSpec) addTerm(at, add float64) {
	if at <= c.lo {
		c.baseSlope += add
		return
	}
	if at >= c.hi {
		return
	}
	// Insert keeping breakAt sorted (at most two entries).
	if c.nBreaks == 1 && at < c.breakAt[0] {
		c.breakAt[1], c.breakAdd[1] = c.breakAt[0], c.breakAdd[0]
		c.breakAt[0], c.breakAdd[0] = at, add
		c.nBreaks = 2
		return
	}
	if c.nBreaks == 1 && at == c.breakAt[0] {
		c.breakAdd[0] += add
		return
	}
	c.breakAt[c.nBreaks] = at
	c.breakAdd[c.nBreaks] = add
	c.nBreaks++
}

// sample draws one value from the normalized density exp(f) where f is the
// piecewise-linear function described by the spec. It requires lo < hi and,
// when hi is +Inf, a negative final slope.
//
// Every move takes one uniform draw to pick the piece and one to invert
// within it, even when there is a single piece, so the chain's RNG stream
// does not depend on the piece count. The inversion reuses the picked
// piece's expm1 and adds one log1p; no piece needs a logarithm.
func (c *condSpec) sample(r *xrand.RNG) float64 {
	var p pieceSet
	c.build(&p)
	pick := 0
	if p.np == 1 {
		r.Float64() // the pick draw; one piece needs no masses
	} else {
		p.weigh()
		u := r.Float64() * p.total
		pick = p.np - 1
		for i := 0; i < p.np; i++ {
			u -= p.mass[i]
			if u < 0 {
				pick = i
				break
			}
		}
	}
	lo := p.edges[pick]
	w := p.edges[pick+1] - lo
	m := p.slopes[pick]
	if math.IsInf(w, 1) {
		return lo + r.Exp(-m)
	}
	u := r.Float64()
	em := p.em[pick]
	var t float64
	switch {
	case em == 0: // flat (m·w == 0): uniform
		t = u * w
	case m < 0:
		// Inverse CDF of exp(m·t) on (0,w): the decreasing-density form
		// xrand.TruncExp uses.
		t = -math.Log1p(u*em) / -m
	default:
		// Increasing density, inverted from its upper end (reflected) so
		// steep pieces (m·w past ~709) cannot overflow.
		t = w + math.Log1p((1-u)*em)/m
	}
	// Guard against boundary rounding.
	if t < 0 {
		t = 0
	}
	if t > w {
		t = w
	}
	return lo + t
}

// pieceSet is a condSpec expanded into its pieces: np pieces with
// boundaries edges[0..np] (edges[np] may be +Inf), their slopes, the log
// density f at each finite edge anchored at f(lo) = 0, and, per bounded
// sloped piece, em = expm1(−|m|·w), the one transcendental both its mass
// and its inverse CDF need.
type pieceSet struct {
	np     int
	edges  [4]float64
	slopes [3]float64
	f      [4]float64
	em     [3]float64
	fmax   float64 // max of f over the finite edges
	// Set by weigh: the piece masses in the linear domain, scaled by
	// exp(−fmax), and their sum.
	mass  [3]float64
	total float64
}

// build expands the spec into p: edges, slopes, f at the edges, fmax and em.
func (c *condSpec) build(p *pieceSet) {
	np := 1
	p.edges[0] = c.lo
	slope := c.baseSlope
	p.slopes[0] = slope
	for b := 0; b < c.nBreaks; b++ {
		p.edges[np] = c.breakAt[b]
		slope += c.breakAdd[b]
		p.slopes[np] = slope
		np++
	}
	p.edges[np] = c.hi
	p.np = np
	f, fmax := 0.0, 0.0
	for i := 0; i < np; i++ {
		p.f[i] = f
		m, w := p.slopes[i], p.edges[i+1]-p.edges[i]
		if math.IsInf(w, 1) {
			break // unbounded tail: f(+Inf) = −Inf, no em
		}
		mw := m * w
		switch { // em stays 0 for a flat piece
		case mw < 0:
			p.em[i] = math.Expm1(mw)
		case mw > 0:
			p.em[i] = math.Expm1(-mw)
		}
		f += mw
		p.f[i+1] = f
		if f > fmax {
			fmax = f
		}
	}
	p.fmax = fmax
}

// weigh fills p.mass and p.total. Each mass is the piece's integral of
// exp(f − fmax), anchored at the piece's higher end so the exponent is at
// most 0 and nothing overflows:
//
//	m < 0:  exp(f_i − fmax)·expm1(m·w)/m
//	m > 0:  exp(f_{i+1} − fmax)·(−expm1(−m·w))/m
//	m·w = 0: exp(f_i − fmax)·w
//	tail:   exp(f_i − fmax)/(−m)
func (p *pieceSet) weigh() {
	p.total = 0
	for i := 0; i < p.np; i++ {
		m, w := p.slopes[i], p.edges[i+1]-p.edges[i]
		var mass float64
		switch {
		case math.IsInf(w, 1):
			mass = math.Exp(p.f[i]-p.fmax) / -m
		case p.em[i] == 0:
			mass = math.Exp(p.f[i]-p.fmax) * w
		case m < 0:
			mass = math.Exp(p.f[i]-p.fmax) * p.em[i] / m
		default:
			mass = math.Exp(p.f[i+1]-p.fmax) * -p.em[i] / m
		}
		p.mass[i] = mass
		p.total += mass
	}
}

// logPDF evaluates the normalized log density at x (used by tests and the
// generic-vs-specialized equivalence checks; the sampler itself never needs
// it).
func (c *condSpec) logPDF(x float64) float64 {
	if x < c.lo || x > c.hi {
		return math.Inf(-1)
	}
	var p pieceSet
	c.build(&p)
	p.weigh()
	logTot := p.fmax + math.Log(p.total)
	for i := 0; i < p.np; i++ {
		if x <= p.edges[i+1] || i == p.np-1 {
			return p.f[i] + p.slopes[i]*(x-p.edges[i]) - logTot
		}
	}
	return math.Inf(-1) // unreachable
}
