package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/piecewise"
	"repro/internal/xrand"
)

// buildEquivalent constructs the piecewise.LogLinear matching a condSpec.
func buildEquivalent(t *testing.T, c *condSpec) *piecewise.LogLinear {
	t.Helper()
	breaks := []float64{c.lo}
	slopes := []float64{}
	slope := c.baseSlope
	for b := 0; b < c.nBreaks; b++ {
		slopes = append(slopes, slope)
		breaks = append(breaks, c.breakAt[b])
		slope += c.breakAdd[b]
	}
	slopes = append(slopes, slope)
	breaks = append(breaks, c.hi)
	d, err := piecewise.New(breaks, slopes, 0)
	if err != nil {
		t.Fatalf("piecewise.New: %v", err)
	}
	return d
}

// TestCondSpecMatchesPiecewise draws random specs and checks that logPDF
// agrees with the general-purpose implementation everywhere, and that
// sampling matches the piecewise CDF.
func TestCondSpecMatchesPiecewise(t *testing.T) {
	r := xrand.New(31)
	for trial := 0; trial < 200; trial++ {
		var c condSpec
		lo := r.Uniform(-5, 5)
		width := r.Uniform(0.1, 10)
		hi := lo + width
		c.reset(lo, hi, r.Uniform(-8, 8))
		nb := r.Intn(3)
		for b := 0; b < nb; b++ {
			// Some breakpoints inside, some outside.
			c.addTerm(r.Uniform(lo-1, hi+1), r.Uniform(0.1, 6))
		}
		d := buildEquivalent(t, &c)
		for probe := 0; probe < 20; probe++ {
			x := r.Uniform(lo, hi)
			got := c.logPDF(x)
			want := d.LogPDF(x)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: logPDF(%v) = %v, piecewise %v (spec %+v)", trial, x, got, want, c)
			}
		}
		// KS-style check on a coarse grid using 20k samples.
		const n = 20000
		checks := []float64{lo + 0.25*width, lo + 0.5*width, lo + 0.75*width}
		counts := make([]int, len(checks))
		for s := 0; s < n; s++ {
			x := c.sample(r)
			if x < lo || x > hi {
				t.Fatalf("trial %d: sample %v outside (%v,%v)", trial, x, lo, hi)
			}
			for j, cp := range checks {
				if x <= cp {
					counts[j]++
				}
			}
		}
		for j, cp := range checks {
			got := float64(counts[j]) / n
			want := d.CDF(cp)
			if math.Abs(got-want) > 0.02 {
				t.Fatalf("trial %d: empirical CDF(%v)=%v, want %v", trial, cp, got, want)
			}
		}
	}
}

// sampleReference is the log-domain kernel condSpec.sample replaced, kept
// as the lockstep oracle: per-piece log masses through logIntExp, weights
// exp(logZ − max), and the unreflected truncated-exponential inverse CDF
// that xrand.TruncExp used. That inverse overflows once slope·width passes
// ~709; overflow reports it (the draw is then clamped to the piece's upper
// edge, or NaN when u == 0).
func sampleReference(c *condSpec, r *xrand.RNG) (x float64, overflow bool) {
	var edges [4]float64
	var slopes [3]float64
	np := 1
	edges[0] = c.lo
	slope := c.baseSlope
	slopes[0] = slope
	for b := 0; b < c.nBreaks; b++ {
		edges[np] = c.breakAt[b]
		slope += c.breakAdd[b]
		slopes[np] = slope
		np++
	}
	edges[np] = c.hi
	var logZ [3]float64
	f := 0.0
	maxLZ := math.Inf(-1)
	for i := 0; i < np; i++ {
		w := edges[i+1] - edges[i]
		logZ[i] = f + logIntExp(slopes[i], w)
		if !math.IsInf(w, 1) {
			f += slopes[i] * w
		}
		if logZ[i] > maxLZ {
			maxLZ = logZ[i]
		}
	}
	var total float64
	var wts [3]float64
	for i := 0; i < np; i++ {
		wts[i] = math.Exp(logZ[i] - maxLZ)
		total += wts[i]
	}
	u := r.Float64() * total
	pick := np - 1
	for i := 0; i < np; i++ {
		u -= wts[i]
		if u < 0 {
			pick = i
			break
		}
	}
	lo := edges[pick]
	w := edges[pick+1] - lo
	if math.IsInf(w, 1) {
		return lo + r.Exp(-slopes[pick]), false
	}
	v := r.Float64()
	rate := -slopes[pick]
	if rate == 0 {
		return lo + v*w, false
	}
	em := math.Expm1(-rate * w)
	t := -math.Log1p(v*em) / rate
	if t < 0 {
		t = 0
	}
	if t > w {
		t = w
	}
	return lo + t, math.IsInf(em, 1)
}

// randomSpec draws a condSpec of 1–3 pieces with slopes in (−30, 30) and
// widths log-uniform in (e^−12, e^4); a quarter of them end in an
// unbounded tail (whose slope is then negative).
func randomSpec(r *xrand.RNG) condSpec {
	np := 1 + r.Intn(3)
	lo := r.Uniform(-5, 5)
	var slopes [3]float64
	for i := 0; i < np; i++ {
		slopes[i] = r.Uniform(-30, 30)
	}
	unbounded := r.Intn(4) == 0
	if unbounded {
		slopes[np-1] = -r.Uniform(0.05, 30)
	}
	edge := lo
	var edges [3]float64
	for i := 0; i < np; i++ {
		edge += math.Exp(r.Uniform(-12, 4))
		edges[i] = edge
	}
	hi := edges[np-1]
	if unbounded {
		hi = math.Inf(1)
	}
	var c condSpec
	c.reset(lo, hi, slopes[0])
	for i := 1; i < np; i++ {
		c.addTerm(edges[i-1], slopes[i]-slopes[i-1])
	}
	return c
}

// ksDistance is the Kolmogorov–Smirnov statistic of the sorted sample xs
// against the spec's exact CDF.
func ksDistance(t *testing.T, c *condSpec, xs []float64) float64 {
	d := buildEquivalent(t, c)
	sort.Float64s(xs)
	n := float64(len(xs))
	var ks float64
	for i, x := range xs {
		f := d.CDF(x)
		ks = math.Max(ks, math.Max(math.Abs(f-float64(i)/n), math.Abs(float64(i+1)/n-f)))
	}
	return ks
}

// TestCondSpecLockstepWithReference runs the linear-domain kernel and the
// log-domain reference side by side over 10^5 random specs, two draws
// each, from RNGs that start equal. Both must leave the RNG at the same
// position after every draw — chains stay in lockstep — and agree to
// rounding (|Δx| ≤ 1e-9·max(1,|x|)) wherever the reference does not
// overflow. Where it does (a steep increasing piece, slope·width > ~709,
// which it clamps to the piece's edge), the kernel's draws must instead
// follow the exact CDF.
func TestCondSpecLockstepWithReference(t *testing.T) {
	meta := xrand.New(20260)
	rNew, rRef := xrand.New(77), xrand.New(77)
	var overflowSpecs []condSpec
	compared, overflows := 0, 0
	for trial := 0; trial < 100000; trial++ {
		c := randomSpec(meta)
		overflowed := false
		for draw := 0; draw < 2; draw++ {
			got := c.sample(rNew)
			want, overflow := sampleReference(&c, rRef)
			if *rNew != *rRef {
				t.Fatalf("trial %d draw %d: RNG positions diverged (spec %+v)", trial, draw, c)
			}
			if got < c.lo || got > c.hi || math.IsNaN(got) {
				t.Fatalf("trial %d: sample %v outside (%v,%v)", trial, got, c.lo, c.hi)
			}
			if overflow {
				overflows++
				overflowed = true
				continue
			}
			compared++
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d draw %d: sample %v, reference %v (spec %+v)", trial, draw, got, want, c)
			}
		}
		if overflowed {
			overflowSpecs = append(overflowSpecs, c)
		}
	}
	if overflows == 0 {
		t.Fatal("no spec reached the reference's overflow regime")
	}
	t.Logf("%d draws compared, %d in the reference's overflow regime (%d specs)", compared, overflows, len(overflowSpecs))

	// The overflow regime, against the exact CDF of internal/piecewise.
	const n = 4000
	xs := make([]float64, n)
	r := xrand.New(78)
	for k, c := range overflowSpecs[:min(40, len(overflowSpecs))] {
		atHi := 0
		for i := range xs {
			xs[i] = c.sample(r)
			if xs[i] == c.hi {
				atHi++
			}
		}
		if atHi == n {
			t.Fatalf("overflow spec %d: every sample equals hi (spec %+v)", k, c)
		}
		// 1.95/√n is the two-sided KS critical value at α = 0.001.
		if ks := ksDistance(t, &c, xs); ks > 1.95/math.Sqrt(n) {
			t.Fatalf("overflow spec %d: KS distance %v to the exact CDF (spec %+v)", k, ks, c)
		}
	}
}

func TestCondSpecUnboundedTail(t *testing.T) {
	var c condSpec
	c.reset(2, math.Inf(1), -3)
	r := xrand.New(5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		x := c.sample(r)
		if x < 2 {
			t.Fatalf("sample %v below support", x)
		}
		sum += x
	}
	// Exp(3) shifted by 2: mean 2 + 1/3.
	if math.Abs(sum/n-(2+1.0/3)) > 0.01 {
		t.Fatalf("tail mean %v, want %v", sum/n, 2+1.0/3)
	}
}

func TestCondSpecUnboundedWithBreak(t *testing.T) {
	// Departure-move shape: slope -µ then breakpoint adds +µ... that would
	// make the tail flat (invalid); in the sampler the tail beyond the last
	// in-queue arrival only occurs bounded. Here test a valid unbounded
	// two-piece: -1 then -3 via addTerm(-2).
	var c condSpec
	c.reset(0, math.Inf(1), -1)
	c.addTerm(1, -2)
	r := xrand.New(6)
	d := buildEquivalent(t, &c)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += c.sample(r)
	}
	if math.Abs(sum/n-d.Mean()) > 0.01 {
		t.Fatalf("mean %v, piecewise analytic %v", sum/n, d.Mean())
	}
}

func TestCondSpecBreakOrdering(t *testing.T) {
	// Insert breakpoints out of order; spec must sort them.
	var c condSpec
	c.reset(0, 10, -1)
	c.addTerm(7, 2)
	c.addTerm(3, 1)
	if c.nBreaks != 2 || c.breakAt[0] != 3 || c.breakAt[1] != 7 {
		t.Fatalf("breakpoints not sorted: %+v", c)
	}
	// Coincident breakpoints merge.
	var c2 condSpec
	c2.reset(0, 10, -1)
	c2.addTerm(4, 2)
	c2.addTerm(4, 0.5)
	if c2.nBreaks != 1 || c2.breakAdd[0] != 2.5 {
		t.Fatalf("coincident breakpoints not merged: %+v", c2)
	}
}

func TestCondSpecFoldsOutOfRange(t *testing.T) {
	var c condSpec
	c.reset(1, 2, -1)
	c.addTerm(0.5, 3) // below lo: folds into base
	c.addTerm(2.5, 9) // above hi: inert
	if c.baseSlope != 2 || c.nBreaks != 0 {
		t.Fatalf("out-of-range terms mishandled: %+v", c)
	}
}

func BenchmarkCondSpecSample(b *testing.B) {
	r := xrand.New(1)
	var c condSpec
	for i := 0; i < b.N; i++ {
		c.reset(0, 3, -2)
		c.addTerm(1, 2.5)
		c.addTerm(2, 1.5)
		_ = c.sample(r)
	}
}

func BenchmarkPiecewiseEquivalentSample(b *testing.B) {
	r := xrand.New(1)
	breaks := []float64{0, 1, 2, 3}
	slopes := []float64{-2, 0.5, 2}
	for i := 0; i < b.N; i++ {
		d, err := piecewise.New(breaks, slopes, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = d.Sample(r)
	}
}
