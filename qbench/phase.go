package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// rateBound is the correctness bound on every stream's final estimate:
// the mean over its service queues of |µ̂ − µ|/µ against the simulator's µ.
const rateBound = 0.5

// drainTimeout bounds the untimed drain that waits for every stream's
// estimate to cover all of its sealed tasks.
const drainTimeout = 60 * time.Second

// check is one correctness check of a phase.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// phaseResult is what one daemon phase measured.
type phaseResult struct {
	e2e       metricSet // the bounded end-to-end metrics
	extra     metricSet // further end-to-end timings, unbounded
	layers    metricSet // per-layer metrics the phase itself measures
	attempted int
	failed    int
	checks    []check
	errs      []string
	events    int // events accepted in the timed phase
	accepted  int // events accepted by the end of ingest
	// cfg is the streams' config as the daemon reported it.
	cfg serve.StreamConfig
	// Traced phases only: the daemon's registry at the end of ingest, its
	// span ring and the benchmark's own client spans, the spans either
	// ring overwrote, the sampled queue-depth maximum, and the runtime's
	// GC share and allocated bytes over the timed phase.
	reg         map[string]any
	elapsed     time.Duration
	spans       []obs.Span
	clientSpans []obs.Span
	spansLost   int
	queueDepth  float64
	gcShare     float64
	allocBytes  float64
}

// phaseOpts configures runPhase.
type phaseOpts struct {
	seconds    time.Duration
	setups     int  // daemon set-ups timed for setup_s; the last before the phase serves it
	traceEvery int  // span sampling rate; 0 = tracing off
	forceFail  bool // fail a correctness check on purpose (self-test)
	// onDaemon, when set, sees every daemon the phase starts (self-test).
	onDaemon func(*daemon)
}

func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupDaemon starts the daemon, waits for /readyz and creates the streams
// that exist before the timed phase. It returns the time that took.
func setupDaemon(ctx context.Context, w workload, in *inputs, traceEvery int, onDaemon func(*daemon)) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(w, traceEvery)
	if err != nil {
		return nil, 0, err
	}
	if onDaemon != nil {
		onDaemon(d)
	}
	c := serve.NewClient(d.url())
	if err := d.waitReady(ctx, c); err != nil {
		d.close()
		return nil, 0, err
	}
	for _, si := range in.streams {
		if err := c.CreateStream(ctx, si.id, w.cfg); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("PUT %s: %w", si.id, err)
		}
	}
	return d, time.Since(t0), nil
}

// setUps sets the daemon up n times and returns the set-up times. With
// keep it returns the last daemon, and the live heap taken just before it
// was built, and tears the others down; without, it tears all down.
func setUps(ctx context.Context, w workload, in *inputs, opts phaseOpts, n int, keep bool) (d *daemon, took samples, heap uint64, err error) {
	for i := 0; i < n; i++ {
		last := keep && i == n-1
		if last {
			heap = heapLive()
		}
		var t time.Duration
		if d, t, err = setupDaemon(ctx, w, in, opts.traceEvery, opts.onDaemon); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		took.add(t)
		if !last {
			if err := d.close(); err != nil {
				return nil, nil, 0, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	return d, took, heap, nil
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntime() [3]float64 {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// runPhase sets the daemon up, runs the timed load, drains, checks the
// answers, and tears the daemon down on every path.
func runPhase(ctx context.Context, w workload, in *inputs, opts phaseOpts) (res *phaseResult, err error) {
	// Half the set-ups run before the timed phase and half after it, so
	// setup_s spans the run rather than one burst of the host's disk.
	d, setup, heapBefore, err := setUps(ctx, w, in, opts, opts.setups-opts.setups/2, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	res = &phaseResult{}
	var spans *obs.Tracer
	if opts.traceEvery > 0 {
		spans = obs.NewTracer(1 << 17)
		spans.SetSampleEvery(1)
	}
	l := newLoad(w, in, d.url(), opts.seconds, spans)
	if err := l.readConfig(ctx); err != nil {
		return nil, err
	}
	res.cfg = l.cfg
	rt0 := readRuntime()
	l.start = time.Now().Add(5 * time.Millisecond)

	stopPoller := background(func(stop <-chan struct{}) { l.poll(ctx, stop) })
	defer stopPoller()
	stopSampler := background(func(stop <-chan struct{}) {
		if opts.traceEvery > 0 {
			res.queueDepth = sampleQueueDepth(d.srv.Registry(), stop)
		}
	})
	defer stopSampler()
	sendErr := make(chan error, 1)
	go func() { sendErr <- l.send(ctx) }()

	// Live heap and runtime counters at the end of the timed phase.
	var heapAfter uint64
	var rt1 [3]float64
	select {
	case <-time.After(time.Until(l.start.Add(opts.seconds))):
		rt1 = readRuntime()
		heapAfter = heapLive()
	case <-ctx.Done():
	}
	if err := <-sendErr; err != nil {
		return nil, fmt.Errorf("sender: %w", err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	stopSampler()
	res.elapsed = time.Since(l.start)
	if opts.traceEvery > 0 {
		if res.reg, err = readRegistry(d.srv.Registry()); err != nil {
			return nil, err
		}
	}

	checks := l.drain(ctx, opts.forceFail)
	stopPoller()
	checks = append(checks, l.observed(ctx))
	if spans != nil {
		res.clientSpans = spans.Snapshot(0)
		res.spans = d.srv.Tracer().Snapshot(0)
		res.spansLost = lost(spans) + lost(d.srv.Tracer())
	}
	res.gcShare = (rt1[0] - rt0[0]) / (rt1[1] - rt0[1])
	res.allocBytes = rt1[2] - rt0[2]
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	_, after, _, err := setUps(ctx, w, in, opts, opts.setups/2, false)
	if err != nil {
		return nil, err
	}
	l.report(res, checks, append(setup, after...), float64(heapAfter)-float64(heapBefore))
	return res, nil
}

// drain waits, untimed, until every stream's estimate covers all its
// sealed tasks, and checks the answers: everything sent was accepted, and
// each stream ends on a Gibbs estimate close to the simulator's rates.
func (l *load) drain(ctx context.Context, forceFail bool) []check {
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	l.mu.Lock()
	sealed := append([]int(nil), l.sealed...)
	accepted, rejected, sent := l.accepted, l.rejected, l.sent
	l.mu.Unlock()
	worst, notGibbs, uncovered := 0.0, 0, 0
	for s, si := range l.in.streams {
		if sealed[s] == 0 {
			continue
		}
		t0 := time.Now()
		est, err := l.c.WaitForEpoch(ctx, si.id, uint64(sealed[s]))
		l.span(spanClientEstimate, si.id, t0, time.Now())
		if err != nil {
			uncovered++
			l.fail("drain %s: %v", si.id, err)
			continue
		}
		if est.Backend != serve.BackendGibbs {
			notGibbs++
		}
		worst = math.Max(worst, rateError(est.Rates, si.rates, nil))
	}
	return []check{
		{Name: "accepted_equals_sent", OK: accepted == sent && rejected == 0,
			Detail: fmt.Sprintf("accepted %d of %d sent, %d rejected", accepted, sent, rejected)},
		{Name: "estimates_cover_sealed", OK: uncovered == 0,
			Detail: fmt.Sprintf("%d streams short of their sealed tasks after the drain", uncovered)},
		{Name: "final_backend_gibbs", OK: notGibbs == 0,
			Detail: fmt.Sprintf("%d streams not on gibbs", notGibbs)},
		{Name: "final_rates_within_bound", OK: worst <= rateBound && !forceFail,
			Detail: fmt.Sprintf("worst stream mean |mu_hat-mu|/mu %.3f, bound %.2f", worst, rateBound)},
	}
}

// observed takes one last poll, so tasks covered during the drain are
// seen, and checks that every measured task was seen covered.
func (l *load) observed(ctx context.Context) check {
	l.round(ctx)
	l.mu.Lock()
	defer l.mu.Unlock()
	missing := 0
	for s := range l.in.streams {
		missing += max(0, l.measured[s]-l.covered[s])
	}
	return check{Name: "freshness_observed", OK: missing == 0,
		Detail: fmt.Sprintf("%d measured tasks never seen covered", missing)}
}

// report computes the phase's metrics and folds the checks, including
// one that every bounded metric was measured, into the phase's counts.
func (l *load) report(res *phaseResult, checks []check, setup samples, heapGrowth float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	wall := math.Max(l.timedEnd.Sub(l.start).Seconds(), l.seconds.Seconds())
	m := &res.e2e
	m.add("freshness_p50_ms", l.fresh.quantile(0.5), "ms", len(l.fresh))
	m.add("estimate_get_p50_ms", l.estGet.quantile(0.5), "ms", len(l.estGet))
	m.add("estimate_get_p90_ms", l.estGet.quantile(0.9), "ms", len(l.estGet))
	m.add("events_per_s", float64(l.timedAccepted)/wall, "1/s", l.timedAccepted)
	m.add("rate_err_pct", 100*l.rateErr.mean(), "%", len(l.rateErr))
	m.add("live_heap_mb", heapGrowth/(1<<20), "MiB", 1)
	m.add("setup_s", setup.quantile(0.5)/1e3, "s", len(setup))
	// A bounded metric with nothing behind it would print 0, which reads
	// as a perfect score; it fails the run instead.
	var unmeasured []string
	for _, x := range *m {
		if x.samples == 0 || math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			unmeasured = append(unmeasured, x.name)
		}
	}
	checks = append(checks, check{Name: "bounded_metrics_measured", OK: len(unmeasured) == 0,
		Detail: fmt.Sprintf("unmeasured: %v", unmeasured)})
	for _, c := range checks {
		l.attempted++
		if !c.OK {
			l.failed++
		}
	}
	res.checks = checks
	res.attempted, res.failed, res.errs = l.attempted, l.failed, l.errs
	res.events, res.accepted = l.timedAccepted, l.accepted
	m.add("success_share", 1-float64(l.failed)/float64(l.attempted), "ratio", l.attempted)

	// Timings with too few samples, too far in the tail, or too exposed to
	// the host's CPU and disk contention to hold a bound across seeds:
	// printed beside the bounded metrics, and as per-layer metrics of
	// traced runs.
	x := &res.extra
	x.add("freshness_p99_ms", l.fresh.quantile(0.99), "ms", len(l.fresh))
	x.add("ingest_ack_p50_ms", l.ack.quantile(0.5), "ms", len(l.ack))
	x.add("ingest_ack_p90_ms", l.ack.quantile(0.9), "ms", len(l.ack))
	x.add("ingest_ack_p99_ms", l.ack.quantile(0.99), "ms", len(l.ack))
	x.add("estimate_get_p99_ms", l.estGet.quantile(0.99), "ms", len(l.estGet))
	var first samples
	for s := range l.in.streams {
		if !l.minAck[s].IsZero() && !l.firstEst[s].IsZero() {
			first.add(max(0, l.firstEst[s].Sub(l.minAck[s])))
		}
	}
	x.add("first_estimate_p50_ms", first.quantile(0.5), "ms", len(first))
	// The sender shares the daemon's Ps (GOMAXPROCS stays at its default,
	// as qserved runs); a high send lag marks a run whose generator was
	// starved.
	res.layers.add("loadgen.send_lag_p99_ms", l.lag.quantile(0.99), "ms", len(l.lag))
}

// background runs fn on its own goroutine and returns the function that
// stops it and waits for it to return (idempotent).
func background(fn func(stop <-chan struct{})) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(stop)
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}

// lost is how many spans the tracer's ring overwrote.
func lost(t *obs.Tracer) int {
	if r, c := t.Recorded(), uint64(t.Cap()); r > c {
		return int(r - c)
	}
	return 0
}

// readRegistry returns the registry's JSON view.
func readRegistry(reg *obs.Registry) (map[string]any, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var out map[string]any
	return out, json.Unmarshal(buf.Bytes(), &out)
}

// sampleQueueDepth samples qserved_inference_queue_depth every 20ms until
// stop closes and returns the maximum seen.
func sampleQueueDepth(reg *obs.Registry, stop <-chan struct{}) float64 {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	maxDepth := 0.0
	for {
		select {
		case <-stop:
			return maxDepth
		case <-tick.C:
		}
		if r, err := readRegistry(reg); err == nil {
			if v := regValue(r, "qserved_inference_queue_depth"); v > maxDepth {
				maxDepth = v
			}
		}
	}
}
