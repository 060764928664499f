package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestSweepAllocFreeSequential pins the hot-path contract: after the first
// sweep has warmed the scratch buffers, a sequential Sweep performs zero
// heap allocations (including the incremental statistics updates).
func TestSweepAllocFreeSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
	g, err := NewGibbs(working, params, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g.EnableQueueStats()
	g.Sweep() // warm-up
	if allocs := testing.AllocsPerRun(10, g.Sweep); allocs != 0 {
		t.Fatalf("sequential Sweep allocates %v per run, want 0", allocs)
	}
}

// TestSweepAllocFreeChromatic pins the same contract for the chromatic
// engine: with the persistent worker pool, steady-state sweeps are
// allocation-free at any worker count (schedule, RNG streams, scratch
// contexts, and pool are all built once at construction).
func TestSweepAllocFreeChromatic(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	withGOMAXPROCS(t, 4)
	for _, workers := range []int{1, 2, 4} {
		working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
		g, err := NewParallelGibbs(working, params, xrand.New(7), workers)
		if err != nil {
			t.Fatal(err)
		}
		g.EnableQueueStats()
		g.Sweep() // warm-up
		if allocs := testing.AllocsPerRun(10, g.Sweep); allocs != 0 {
			t.Fatalf("chromatic Sweep (workers=%d) allocates %v per run, want 0", workers, allocs)
		}
		g.Close()
	}
}

// withGOMAXPROCS raises GOMAXPROCS for the duration of a pool test: the
// effective-worker clamp means NewParallelGibbs spawns no pool when the
// host (or a -cpu run) leaves GOMAXPROCS below 2, and these tests are
// about the pooled paths specifically.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// waitGoroutines polls until the process goroutine count drops to the
// target (cleanups and channel-close notifications are asynchronous).
func waitGoroutines(t *testing.T, target int, gc bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gc {
			runtime.GC()
		}
		if runtime.NumGoroutine() <= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still %d goroutines, want <= %d", runtime.NumGoroutine(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelPoolCloseDrains checks the explicit teardown path: Close
// stops every pooled worker, is idempotent, and later sweeps fall back to
// the inline engine with a bit-identical chain (RNG streams are bound to
// shards, so the execution engine cannot matter).
func TestParallelPoolCloseDrains(t *testing.T) {
	withGOMAXPROCS(t, 4)
	working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
	base := runtime.NumGoroutine()

	ref := working.Clone()
	refG, err := NewParallelGibbs(ref, params, xrand.New(7), 4)
	if err != nil {
		t.Fatal(err)
	}
	es := working.Clone()
	g, err := NewParallelGibbs(es, params, xrand.New(7), 4)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("worker pools spawned no goroutines")
	}
	for sweep := 0; sweep < 5; sweep++ {
		refG.Sweep()
		g.Sweep()
	}
	g.Close()
	g.Close() // idempotent
	for sweep := 0; sweep < 5; sweep++ {
		refG.Sweep() // pooled
		g.Sweep()    // inline fallback
	}
	for i := range ref.Events {
		if es.Arr[i] != ref.Arr[i] || es.Dep[i] != ref.Dep[i] {
			t.Fatalf("post-Close chain diverged at event %d", i)
		}
	}
	refG.Close()
	waitGoroutines(t, base, false)
}

// bytesPerSweep measures heap bytes allocated per steady-state Sweep with
// the collector held off: every GC cycle drops the runtime's channel-wait
// sudog caches, so under a live collector a pooled sweep occasionally
// re-allocates one (the historical 1 B/op drift at GOMAXPROCS >= 2).
// Holding GC off and warming up first separates that runtime noise from
// actual sampler allocations, which must be exactly zero.
//
// TotalAlloc is process-wide, so a window also counts whatever the runtime
// allocates in the background meanwhile, even around the sequential
// sampler, which starts no goroutine. The result is the minimum over 5
// windows of runs sweeps each: background allocation lands in some
// windows, while an allocation by the sampler recurs every sweep and so
// shows in all of them.
func bytesPerSweep(g *Gibbs, runs int) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // empty the sudog caches once, then let warm-up refill them
	for i := 0; i < 3; i++ {
		g.Sweep()
	}
	best := ^uint64(0)
	for window := 0; window < 5; window++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			g.Sweep()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return best
}

// TestSweepZeroBytesAllVariants pins 0 bytes/op — not merely 0 allocs/op,
// which rounds away sub-allocation drift — for every sweep variant at
// GOMAXPROCS >= 2, where the pooled engines actually dispatch to helper
// goroutines and the class barrier is exercised for real.
func TestSweepZeroBytesAllVariants(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	withGOMAXPROCS(t, 4)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"seq", 0}, {"chromatic-w1", 1}, {"chromatic-w2", 2}, {"chromatic-w4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
			g, err := newGibbsForWorkers(working, params, xrand.New(7), tc.workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			g.EnableQueueStats()
			if bytes := bytesPerSweep(g, 10); bytes != 0 {
				t.Fatalf("Sweep (workers=%d) allocates %d bytes per run, want 0", tc.workers, bytes)
			}
		})
	}
}

// TestPosteriorIntoAllocs pins the scratch-reuse contract of the full
// posterior pass: with a GibbsScratch donated through PosteriorOptions,
// the chromatic engine's steady-state allocs per PosteriorInto call stay
// within a small constant of the sequential engine's — the schedule,
// conflict-graph build buffers, pool, and statistics backings are all
// reused rather than rebuilt. (AllocsPerRun runs under GOMAXPROCS=1, so
// the pooled dispatch itself is not measured here; the construction path,
// which is where the chromatic engine used to allocate ~700KB per call,
// is.)
func TestPosteriorIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	base, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
	measure := func(workers int) float64 {
		var (
			pool trace.ClonePool
			sum  PosteriorSummary
			sc   GibbsScratch
		)
		defer sc.Close()
		opts := PosteriorOptions{Sweeps: 10, Workers: workers, Scratch: &sc}
		run := func() {
			working := pool.Get(base)
			if err := PosteriorInto(&sum, working, params, xrand.New(3), opts); err != nil {
				t.Fatal(err)
			}
			pool.Put(working)
		}
		run() // grow the scratch and summary to steady state
		return testing.AllocsPerRun(5, run)
	}
	seq := measure(0)
	for _, workers := range []int{1, 2, 4} {
		if got := measure(workers); got > seq+8 {
			t.Errorf("chromatic PosteriorInto (workers=%d) allocates %v per run, want <= seq %v + 8", workers, got, seq)
		}
	}
}

// TestParallelPoolGCDrains checks the safety net: a sampler that is simply
// dropped (no Close call) must not leak its pooled workers — the cleanup
// attached at construction closes the pool once the sampler is collected.
func TestParallelPoolGCDrains(t *testing.T) {
	withGOMAXPROCS(t, 4)
	working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
	base := runtime.NumGoroutine()
	func() {
		g, err := NewParallelGibbs(working.Clone(), params, xrand.New(7), 4)
		if err != nil {
			t.Fatal(err)
		}
		g.Sweep()
	}()
	waitGoroutines(t, base, true)
}
