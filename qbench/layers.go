package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// layerBudget bounds each repeated layer timing.
const layerBudget = 300 * time.Millisecond

// perLayer assembles the per-layer metrics of a traced run: the daemon's
// instruments and spans from the traced phase, the benchmark's own client
// spans, and timings of each layer's functions on the workload's inputs,
// taken after the daemon is gone so nothing contends with them.
func perLayer(ctx context.Context, in *inputs, plain, tr *phaseResult) (metricSet, error) {
	m := append(append(metricSet(nil), tr.layers...), plain.extra...)
	if err := timeDecode(&m, in); err != nil {
		return nil, err
	}
	if err := timeWAL(&m, in, tr); err != nil {
		return nil, err
	}
	if err := timeCore(&m, tr.cfg, in); err != nil {
		return nil, err
	}
	registryMetrics(&m, tr)
	spanMetrics(&m, tr.spans, tr.clientSpans)
	pf, _ := plain.e2e.get("freshness_p50_ms")
	tf, _ := tr.e2e.get("freshness_p50_ms")
	m.add("chain.trace_overhead_pct", 100*(tf.value-pf.value)/pf.value, "%", min(pf.samples, tf.samples))
	m.add("chain.spans_lost", float64(tr.spansLost), "count", 1)
	m.add("go.gc_cpu_share", tr.gcShare, "ratio", 1)
	m.add("go.alloc_bytes_per_event", tr.allocBytes/float64(max(tr.events, 1)), "B", tr.events)
	return m, ctx.Err()
}

// lines splits the workload's POST bodies into NDJSON lines.
func lines(in *inputs) [][]byte {
	var out [][]byte
	for i := range in.posts {
		body := bytes.TrimSuffix(in.posts[i].body, []byte("\n"))
		out = append(out, bytes.Split(body, []byte("\n"))...)
	}
	return out
}

// timeDecode times trace.DecodeEventLine over every line the workload
// sends, repeating the pass until layerBudget is spent.
func timeDecode(m *metricSet, in *inputs) error {
	ls := lines(in)
	var size int
	for _, l := range ls {
		size += len(l) + 1
	}
	var ev trace.RawEvent
	n := 0
	start := time.Now()
	for time.Since(start) < layerBudget {
		for _, l := range ls {
			if err := trace.DecodeEventLine(l, &ev); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
		}
		n += len(ls)
	}
	m.add("trace.decode_ns_per_event", float64(time.Since(start))/float64(n), "ns", n)
	m.add("trace.bytes_per_event", float64(size)/float64(len(ls)), "B", len(ls))
	return nil
}

// walRecord frames a POST body as the daemon's event record: kind byte,
// stream id, then the canonical NDJSON lines.
func walRecord(dst []byte, id string, body []byte) []byte {
	dst = append(dst, 'E')
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	return append(dst, body...)
}

// timeWAL appends the workload's batch records to a fresh log in a temp
// directory, syncing after each one as the daemon's default batch policy
// does per request.
func timeWAL(m *metricSet, in *inputs, tr *phaseResult) (err error) {
	dir, err := os.MkdirTemp("", "qbench-wal-layer-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendT, syncT samples
	var rec []byte
	events := 0
	start := time.Now()
	for i := range in.posts {
		if time.Since(start) > 3*layerBudget {
			break
		}
		p := &in.posts[i]
		rec = walRecord(rec[:0], in.streams[p.stream].id, p.body)
		t0 := time.Now()
		if _, err := log.Append(rec); err != nil {
			return err
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		appendT.add(t1.Sub(t0))
		syncT.add(time.Since(t1))
		events += p.events
	}
	m.add("wal.append_us_p50", 1e3*appendT.quantile(0.5), "us", len(appendT))
	m.add("wal.sync_ms_p50", syncT.quantile(0.5), "ms", len(syncT))
	m.add("wal.sync_ms_p99", syncT.quantile(0.99), "ms", len(syncT))
	// On the durable workload the daemon's own counter is the source;
	// elsewhere the layer timing's log stands in for it.
	if b, ok := tr.reg["qserved_wal_append_bytes_total"].(float64); ok && tr.accepted > 0 {
		m.add("wal.bytes_per_event", b/float64(tr.accepted), "B", tr.accepted)
	} else {
		m.add("wal.bytes_per_event", float64(log.AppendedBytes())/float64(max(events, 1)), "B", events)
	}
	return nil
}

// timeCore times the warm window's slide, sweep and windowed-posterior
// calls on the first stream's tasks, and the mean-field solve on its
// MinTasks-task windows, all sized by the streams' config as the daemon
// reported it.
func timeCore(m *metricSet, cfg serve.StreamConfig, in *inputs) error {
	window := cfg.WindowTasks
	tasks := in.streams[0].tasks
	we := core.NewWarmEstimator(core.WarmConfig{NumQueues: cfg.NumQueues, EMIters: cfg.EMIters, PostSweeps: cfg.PostSweeps})
	slide := func(t core.SlideTask) error {
		if err := we.Append(t); err != nil {
			return err
		}
		for we.Window().LiveTasks() > window {
			we.EvictOldest()
		}
		return nil
	}
	fill := min(window, len(tasks))
	for _, t := range tasks[:fill] {
		if err := slide(t); err != nil {
			return fmt.Errorf("slide: %w", err)
		}
	}
	slid := tasks[fill:]
	t0 := time.Now()
	for _, t := range slid {
		if err := slide(t); err != nil {
			return fmt.Errorf("slide: %w", err)
		}
	}
	m.add("core.slide_us_per_task", float64(time.Since(t0))/1e3/float64(max(len(slid), 1)), "us", len(slid))

	rng := xrand.New(1)
	we.BeginEpoch()
	var sweep samples
	start := time.Now()
	for !we.Done() && time.Since(start) < layerBudget {
		s0 := time.Now()
		we.Step(rng, 1)
		sweep.add(time.Since(s0))
	}
	m.add("core.sweep_us", 1e3*sweep.quantile(0.5), "us", len(sweep))

	lo, hi := we.Window().Span()
	var pw samples
	start = time.Now()
	for time.Since(start) < layerBudget {
		p0 := time.Now()
		if _, err := we.PosteriorWindows(rng, cfg.WindowSweeps, 0, lo, hi, cfg.Windows); err != nil {
			return fmt.Errorf("posterior windows: %w", err)
		}
		pw.add(time.Since(p0))
	}
	m.add("core.posterior_windows_ms", pw.quantile(0.5), "ms", len(pw))

	minTasks := cfg.MinTasks
	var sc core.MeanFieldScratch
	var sum core.PosteriorSummary
	var params core.Params
	var solve samples
	start = time.Now()
	for off := 0; off+minTasks <= len(tasks) && time.Since(start) < layerBudget; off += minTasks {
		es, err := eventSet(cfg.NumQueues, tasks[off:off+minTasks])
		if err != nil {
			return err
		}
		s0 := time.Now()
		if err := core.ShiftTowardZero(es); err != nil {
			return err
		}
		if _, err := core.MeanFieldInto(&sum, &params, es, core.MeanFieldOptions{Scratch: &sc}); err != nil {
			return fmt.Errorf("mean-field: %w", err)
		}
		solve.add(time.Since(s0))
	}
	m.add("core.meanfield_solve_ms", solve.quantile(0.5), "ms", len(solve))
	return nil
}

// regValue reads a counter or gauge from the registry's JSON view; NaN
// when absent or not finite.
func regValue(reg map[string]any, key string) float64 {
	if v, ok := reg[key].(float64); ok {
		return v
	}
	return math.NaN()
}

// regSum sums every series of a labeled counter family.
func regSum(reg map[string]any, name string) (float64, int) {
	var sum float64
	n := 0
	for k, v := range reg {
		if k == name || strings.HasPrefix(k, name+"{") {
			if f, ok := v.(float64); ok {
				sum += f
				n++
			}
		}
	}
	return sum, n
}

// regHist returns a histogram's count and sum.
func regHist(reg map[string]any, key string) (count, sum float64) {
	h, ok := reg[key].(map[string]any)
	if !ok {
		return 0, math.NaN()
	}
	count, _ = h["count"].(float64)
	sum, _ = h["sum"].(float64)
	return count, sum
}

// registryMetrics derives the executor, store and worker metrics from the
// daemon's instruments at the end of the traced phase's ingest.
func registryMetrics(m *metricSet, tr *phaseResult) {
	reg := tr.reg
	wait, _ := regSum(reg, "qserved_ingest_lock_wait_nanos_total")
	m.add("serve.ingest.lock_wait_ms", wait/1e6, "ms", 1)
	bc, bs := regHist(reg, "qserved_ingest_batch_events")
	m.add("serve.ingest.batch_events_mean", bs/bc, "count", int(bc))

	visits, busy := regHist(reg, "qserved_estimate_seconds")
	workers := regValue(reg, "qserved_inference_workers")
	m.add("exec.busy_share", busy/(workers*tr.elapsed.Seconds()), "ratio", int(visits))
	m.add("exec.visits", visits, "count", 1)
	vc, vs := regHist(reg, "qserved_inference_visit_sweeps")
	m.add("exec.sweeps_per_visit", vs/vc, "count", int(vc))
	skipped, _ := regSum(reg, "qserved_stream_skipped_runs_total")
	m.add("exec.useful_visit_share", visits/(visits+skipped), "ratio", int(visits+skipped))
	m.add("exec.shed_total", regValue(reg, "qserved_inference_overload_total"), "count", 1)
	m.add("exec.queue_depth_max", tr.queueDepth, "count", 1)

	m.add("serve.slide_reuse_ratio", regValue(reg, "qserved_slide_reuse_ratio"), "ratio", 1)
	m.add("serve.rebuilds", regValue(reg, "qserved_inference_rebuilds_total"), "count", 1)
	sc, ss := regHist(reg, "qserved_sweep_seconds")
	m.add("serve.sweep_us_mean", 1e6*ss/sc, "us", int(sc))
	sweeps, _ := regSum(reg, "qserved_stream_sweeps_total")
	sealed, _ := regSum(reg, "qserved_stream_tasks_sealed_total")
	m.add("serve.sweeps_per_sealed_task", sweeps/sealed, "count", int(sealed))
	m.add("serve.publishes.meanfield", regValue(reg, `qserved_backend_published_total{backend="meanfield"}`), "count", 1)
	m.add("serve.publishes.gibbs", regValue(reg, `qserved_backend_published_total{backend="gibbs"}`), "count", 1)
}

type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// spanMetrics aggregates the traced phase's spans: self time per kind
// (a span's duration less what its children cover; leaf spans have no
// children), and for every sampled ingest→publish chain the share of its
// wall time that no span covers.
func spanMetrics(m *metricSet, spans, client []obs.Span) {
	children := make(map[uint64][]*obs.Span)
	for i := range spans {
		if sp := &spans[i]; sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[string]samples)
	for i := range spans {
		sp := &spans[i]
		var ivs []interval
		for _, c := range children[sp.ID] {
			ivs = append(ivs, interval{c.StartNS, c.EndNS})
		}
		s := self[sp.Kind]
		s.add(time.Duration(sp.EndNS - sp.StartNS - covered(ivs, sp.StartNS, sp.EndNS)))
		self[sp.Kind] = s
	}
	for _, r := range []struct {
		name, kind string
		q          float64
	}{
		{"span.ingest.self_ms_p50", "ingest", 0.5},
		{"span.ingest.self_ms_p99", "ingest", 0.99},
		{"span.ingest.batch.ms_p50", "ingest.batch", 0.5},
		{"span.wal.append.ms_p50", "wal.append", 0.5},
		{"span.wal.fsync.ms_p99", "wal.fsync", 0.99},
		{"exec.queue_wait_ms_p50", "queue.wait", 0.5},
		{"exec.queue_wait_ms_p99", "queue.wait", 0.99},
		{"span.window.slide.ms_p50", "window.slide", 0.5},
		{"span.window.rebuild.ms_p50", "window.rebuild", 0.5},
		{"span.publish.ms_p50", "publish", 0.5},
		{"span.visit.self_ms_p50", "visit", 0.5},
	} {
		s := self[r.kind]
		m.add(r.name, s.quantile(r.q), "ms", len(s))
	}

	// Chains: every ingest root whose publish span was recorded.
	var unspanned samples
	for i := range spans {
		root := &spans[i]
		if root.Parent != 0 || root.Kind != "ingest" {
			continue
		}
		var ivs []interval
		var end int64
		var walk func(id uint64)
		walk = func(id uint64) {
			for _, c := range children[id] {
				ivs = append(ivs, interval{c.StartNS, c.EndNS})
				if c.Kind == "publish" {
					end = max(end, c.EndNS)
				}
				walk(c.ID)
			}
		}
		walk(root.ID)
		if end <= root.StartNS {
			continue
		}
		ivs = append(ivs, interval{root.StartNS, root.EndNS})
		wall := end - root.StartNS
		unspanned = append(unspanned, 1-float64(covered(ivs, root.StartNS, end))/float64(wall))
	}
	m.add("chain.unspanned_share", unspanned.mean(), "ratio", len(unspanned))
	m.add("chain.complete_chains", float64(len(unspanned)), "count", 1)

	cdur := make(map[string]samples)
	for i := range client {
		s := cdur[client[i].Kind]
		s.add(time.Duration(client[i].EndNS - client[i].StartNS))
		cdur[client[i].Kind] = s
	}
	m.add("span.client.post.ms_p50", cdur[spanClientPost].quantile(0.5), "ms", len(cdur[spanClientPost]))
	m.add("span.client.estimate.ms_p50", cdur[spanClientEstimate].quantile(0.5), "ms", len(cdur[spanClientEstimate]))
	m.add("span.client.list.ms_p50", cdur[spanClientList].quantile(0.5), "ms", len(cdur[spanClientList]))
}
