package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s := r.Split()
	// Continuing r and s should not produce matching values.
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			t.Fatalf("split stream collided with parent at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 6*math.Sqrt(n/7.0) {
			t.Errorf("Intn bucket %d count %d far from expected %v", i, c, n/7.0)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	rate := 2.5
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("exp mean = %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.02 {
		t.Errorf("exp variance = %v, want %v", variance, 1/(rate*rate))
	}
}

func TestTruncExpSupport(t *testing.T) {
	r := New(17)
	for _, rate := range []float64{-3, -0.1, 0, 0.1, 5} {
		for i := 0; i < 20000; i++ {
			x := r.TruncExp(rate, 2.0)
			if x < 0 || x > 2.0 {
				t.Fatalf("TruncExp(%v, 2) = %v out of support", rate, x)
			}
		}
	}
}

func TestTruncExpMean(t *testing.T) {
	// Mean of Exp(rate) truncated to (0, w):
	// m = 1/rate - w*exp(-rate*w)/(1-exp(-rate*w)).
	r := New(19)
	rate, w := 2.0, 1.5
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.TruncExp(rate, w)
	}
	mean := sum / n
	want := 1/rate - w*math.Exp(-rate*w)/(1-math.Exp(-rate*w))
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("truncated-exp mean = %v, want %v", mean, want)
	}
}

// TestTruncExpSteepIncreasing covers a negative rate with |rate|·width far
// past exp's overflow threshold (~709): the density ∝ exp(20x) on (0, 50)
// piles up just below the width, with mean 50 − 1/20 and spread 1/20, but
// the samples must still spread out rather than all land on the width.
func TestTruncExpSteepIncreasing(t *testing.T) {
	r := New(37)
	const n = 200000
	var sum float64
	atWidth := 0
	for i := 0; i < n; i++ {
		x := r.TruncExp(-20, 50)
		if math.IsNaN(x) || x < 0 || x > 50 {
			t.Fatalf("TruncExp(-20, 50) = %v out of support", x)
		}
		if x == 50 {
			atWidth++
		}
		sum += x
	}
	if want := 50 - 1.0/20; math.Abs(sum/n-want) > 1e-3 {
		t.Fatalf("TruncExp(-20, 50) mean = %v, want %v", sum/n, want)
	}
	if atWidth > n/100 {
		t.Fatalf("%d of %d samples equal the width", atWidth, n)
	}
}

func TestTruncExpZeroRateIsUniform(t *testing.T) {
	r := New(23)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.TruncExp(0, 4)
	}
	if math.Abs(sum/n-2) > 0.05 {
		t.Fatalf("TruncExp(0,4) mean = %v, want ~2", sum/n)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(29)
	const n = 300000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want 1", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(31)
	for _, tc := range []struct{ shape, rate float64 }{
		{0.5, 1}, {1, 2}, {3, 0.5}, {9, 3},
	} {
		const n = 200000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(tc.shape, tc.rate)
			if x < 0 {
				t.Fatalf("negative gamma sample")
			}
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		wantMean := tc.shape / tc.rate
		wantVar := tc.shape / (tc.rate * tc.rate)
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("gamma(%v,%v) mean = %v, want %v", tc.shape, tc.rate, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.02 {
			t.Errorf("gamma(%v,%v) variance = %v, want %v", tc.shape, tc.rate, variance, wantVar)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	r := New(37)
	w := []float64{1, 0, 3, 6}
	counts := make([]int, len(w))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	for i, want := range []float64{0.1, 0, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	if err := quick.Check(func(seed uint64) bool {
		n := int(seed%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := New(43)
	if err := quick.Check(func(a, b uint8) bool {
		n := int(a%40) + 1
		k := int(b) % (n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(47)
	for _, mean := range []float64{0.5, 4, 25, 100} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("poisson(%v) sample mean %v", mean, got)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(2)
	}
	_ = sink
}

// TestGoldenValues pins exact generator outputs so that any accidental
// change to the PCG implementation (which would silently invalidate every
// archived experiment result) fails loudly.
func TestGoldenValues(t *testing.T) {
	r := New(12345)
	want := []uint64{
		0x16fef525e9d82036,
		0x5c6146cd1001cbf8,
		0xdea101a975157ce,
		0x9248d8a03e797dc7,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("Uint64 #%d = %#x, want %#x", i, got, w)
		}
	}
	r2 := New(12345)
	_ = r2.Split() // consumes two draws
	if got := r2.Uint64(); got != want[2] {
		t.Fatalf("post-Split draw = %#x, want %#x", got, want[2])
	}
	r3 := New(1)
	if got := r3.Float64(); got != 0.27891755941912322 {
		t.Fatalf("Float64 = %.17g", got)
	}
	if got := r3.Exp(2); got != 0.25705596376170886 {
		t.Fatalf("Exp = %.17g", got)
	}
	if got := r3.Intn(1000); got != 667 {
		t.Fatalf("Intn = %d", got)
	}
}
