package obs

import "time"

// SweepMetrics instruments a Gibbs sampler's per-sweep hot loop: a duration
// histogram and a moves-resampled histogram. Its ObserveSweep is
// atomics-only — no locks, no allocations — so calling it after every
// sweep keeps the zero-alloc steady state. One SweepMetrics may be shared
// by any number of samplers on any number of goroutines.
type SweepMetrics struct {
	// Duration is the per-sweep wall time in seconds.
	Duration *Histogram
	// Moves is the number of latent variables actually resampled per sweep
	// (latent moves minus degenerate-interval skips).
	Moves *Histogram
}

// NewSweepMetrics registers <prefix>_sweep_seconds and
// <prefix>_sweep_moves_resampled in r and returns the hook.
func NewSweepMetrics(r *Registry, prefix string, labels ...Label) *SweepMetrics {
	return &SweepMetrics{
		Duration: r.Histogram(prefix+"_sweep_seconds",
			"Gibbs sweep wall time in seconds.",
			ExpBuckets(1e-5, 2.5, 14), labels...),
		Moves: r.Histogram(prefix+"_sweep_moves_resampled",
			"Latent moves resampled per Gibbs sweep (excludes degenerate skips).",
			ExpBuckets(1, 4, 10), labels...),
	}
}

// ObserveSweep records one sweep.
func (m *SweepMetrics) ObserveSweep(d time.Duration, movesResampled int) {
	m.Duration.Observe(d.Seconds())
	m.Moves.Observe(float64(movesResampled))
}
