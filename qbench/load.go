package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// pollPeriod is the poller's closed-loop period: one GET /v1/streams per
// period, then GET /estimate for each stream whose estimate_seq moved.
// It bounds the resolution of freshness_* from above (one period plus one
// list and estimate round trip). While a stream has acknowledged its
// MinTasks-th task but not yet answered, the poller re-polls without
// waiting, so first_estimate_* resolves to one round trip.
const pollPeriod = 10 * time.Millisecond

// Client span kinds recorded by the benchmark around its own calls.
const (
	spanClientPost     = "client.post"
	spanClientList     = "client.list"
	spanClientEstimate = "client.estimate"
	spanClientWindows  = "client.windows"
)

// load drives one phase: the open-loop sender and the closed-loop poller
// share it under mu.
type load struct {
	w       workload
	in      *inputs
	c       *serve.Client
	base    string
	hc      *http.Client
	seconds time.Duration
	spans   *obs.Tracer // the benchmark's client spans (nil when untraced)
	start   time.Time
	// cfg is the streams' config as the daemon reports it, its defaults
	// applied: it sizes the full window and the MinTasks threshold.
	cfg serve.StreamConfig

	mu       sync.Mutex
	ids      map[string]int
	measured []int // tasks per stream sealed by POSTs due in the timed phase
	covered  []int // highest epoch the poller has seen, per stream
	lastSeq  []uint64
	next     int // round-robin cursor of the poller's refreshes
	firstEst []time.Time
	minAck   []time.Time
	sealed   []int // tasks sealed by accepted POSTs, per stream
	pending  int   // streams whose measured tasks are not all covered
	done     chan struct{}
	// wake cuts the poller's wait short when a stream starts awaiting its
	// first estimate.
	wake chan struct{}

	fresh, ack, lag, estGet  samples
	rateErr                  samples
	attempted, failed        int
	sent, accepted, rejected int
	timedAccepted            int
	timedEnd                 time.Time
	errs                     []string
}

func newLoad(w workload, in *inputs, base string, seconds time.Duration, spans *obs.Tracer) *load {
	n := len(in.streams)
	l := &load{
		w: w, in: in, c: serve.NewClient(base), base: base,
		hc:      &http.Client{Timeout: 30 * time.Second},
		seconds: seconds, spans: spans,
		ids:      make(map[string]int, n),
		measured: make([]int, n), covered: make([]int, n), lastSeq: make([]uint64, n),
		firstEst: make([]time.Time, n), minAck: make([]time.Time, n), sealed: make([]int, n),
		done: make(chan struct{}), wake: make(chan struct{}, 1),
	}
	for s := range in.streams {
		l.ids[in.streams[s].id] = s
		l.measured[s] = in.streams[s].sealedBy(seconds)
		if l.measured[s] > 0 {
			l.pending++
		}
	}
	if l.pending == 0 {
		close(l.done)
	}
	return l
}

// fail records a failed operation.
func (l *load) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.errs) < 10 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

func (l *load) span(kind, stream string, from, to time.Time) {
	l.spans.Record(obs.Span{ID: l.spans.StartRoot(), Kind: kind, Stream: stream,
		StartNS: from.UnixNano(), EndNS: to.UnixNano()})
}

// readConfig takes the streams' config from GET /v1/streams; every
// stream of a workload shares one.
func (l *load) readConfig(ctx context.Context) error {
	ls, err := l.list(ctx)
	if err != nil {
		return err
	}
	found := 0
	for _, st := range ls.Streams {
		if _, ok := l.ids[st.ID]; ok {
			l.cfg = st.Config
			found++
		}
	}
	if found != len(l.in.streams) {
		return fmt.Errorf("GET /v1/streams lists %d of the %d streams", found, len(l.in.streams))
	}
	return nil
}

// send is the open-loop sender: every POST goes out at its intended time
// (or at once, if the sender is late) and is timed from that intended
// time. POSTs due in the timed phase are measured; after it, sending goes
// on only until the poller has seen every measured task covered, so the
// last measured tasks are estimated under the same load as the rest.
func (l *load) send(ctx context.Context) error {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := range l.in.posts {
		p := &l.in.posts[i]
		timed := p.at < l.seconds
		if !timed {
			select {
			case <-l.done:
				return nil
			default:
			}
		}
		due := l.start.Add(p.at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
		si := &l.in.streams[p.stream]
		sentAt := time.Now()
		sum, err := l.c.PostNDJSON(ctx, si.id, p.body)
		doneAt := time.Now()
		l.span(spanClientPost, si.id, sentAt, doneAt)
		l.mu.Lock()
		l.attempted++
		l.sent += p.events
		if err == nil {
			l.accepted += sum.Accepted
			l.rejected += sum.Rejected
			before := l.sealed[p.stream]
			l.sealed[p.stream] += p.seals
			if before < l.cfg.MinTasks && l.sealed[p.stream] >= l.cfg.MinTasks {
				l.minAck[p.stream] = doneAt
				select {
				case l.wake <- struct{}{}:
				default:
				}
			}
			if timed {
				l.ack.add(doneAt.Sub(due))
				l.lag.add(sentAt.Sub(due))
				l.timedAccepted += sum.Accepted
				l.timedEnd = doneAt
			}
		}
		l.mu.Unlock()
		if err != nil {
			l.fail("POST %s: %v", si.id, err)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if sum.Rejected > 0 {
			l.fail("POST %s: %d lines rejected: %v", si.id, sum.Rejected, sum.Errors)
		}
	}
	return nil
}

type streamList struct {
	Streams []struct {
		ID          string             `json:"id"`
		Config      serve.StreamConfig `json:"config"`
		EstimateSeq uint64             `json:"estimate_seq"`
	} `json:"streams"`
}

func (l *load) list(ctx context.Context) (*streamList, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/v1/streams", nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /v1/streams: HTTP %d", resp.StatusCode)
	}
	var out streamList
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET /v1/streams: %w", err)
	}
	return &out, nil
}

// poll is the closed-loop poller; it returns when stop closes.
func (l *load) poll(ctx context.Context, stop <-chan struct{}) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-timer.C:
		case <-l.wake:
			if !timer.Stop() {
				<-timer.C
			}
		}
		wait := pollPeriod
		if l.round(ctx) {
			wait = 0
		}
		timer.Reset(wait)
	}
}

// round is one poll: list the streams, fetch the estimate of every stream
// whose estimate_seq moved or that awaits its first estimate. It reports
// whether any stream still awaits its first estimate.
func (l *load) round(ctx context.Context) (awaiting bool) {
	t0 := time.Now()
	ls, err := l.list(ctx)
	l.span(spanClientList, "", t0, time.Now())
	l.mu.Lock()
	l.attempted++
	var fetch []int
	if err == nil {
		for _, st := range ls.Streams {
			if s, ok := l.ids[st.ID]; ok && st.EstimateSeq > l.lastSeq[s] {
				fetch = append(fetch, s)
			}
		}
	}
	for s := range l.in.streams {
		if !l.minAck[s].IsZero() && l.firstEst[s].IsZero() && l.lastSeq[s] == 0 {
			awaiting = true
			if !slices.Contains(fetch, s) {
				fetch = append(fetch, s)
			}
		}
	}
	// A round with nothing new refreshes one published stream in turn,
	// as a dashboard refreshes the panel it shows.
	for i := 0; len(fetch) == 0 && i < len(l.in.streams); i++ {
		l.next = (l.next + 1) % len(l.in.streams)
		if l.lastSeq[l.next] > 0 {
			fetch = append(fetch, l.next)
		}
	}
	l.mu.Unlock()
	if err != nil {
		if ctx.Err() == nil {
			l.fail("list: %v", err)
		}
		return false
	}
	for _, s := range fetch {
		l.fetch(ctx, s)
	}
	return awaiting
}

// fetch GETs one stream's estimate (and windows, when the workload reads
// them) and folds it into freshness, first-estimate and rate error.
func (l *load) fetch(ctx context.Context, s int) {
	si := &l.in.streams[s]
	t0 := time.Now()
	est, err := l.c.Estimate(ctx, si.id)
	t1 := time.Now()
	l.span(spanClientEstimate, si.id, t0, t1)
	timed := t0.Sub(l.start) < l.seconds
	l.mu.Lock()
	l.attempted++
	if err != nil {
		first := l.lastSeq[s] == 0
		l.mu.Unlock()
		if !(first && errors.Is(err, serve.ErrNotReady)) && ctx.Err() == nil {
			l.fail("GET estimate %s: %v", si.id, err)
		}
		return
	}
	if timed {
		l.estGet.add(t1.Sub(t0))
	}
	if l.firstEst[s].IsZero() {
		l.firstEst[s] = t1
	}
	if e := int(est.Epoch); e > l.covered[s] {
		for k := l.covered[s] + 1; k <= e && k <= l.measured[s]; k++ {
			l.fresh.add(t1.Sub(l.start.Add(si.sealAt[k-1])))
		}
		if l.covered[s] < l.measured[s] && e >= l.measured[s] {
			l.pending--
			if l.pending == 0 {
				close(l.done)
			}
		}
		l.covered[s] = e
	}
	// Accuracy counts each published Gibbs estimate of a full window once,
	// against the rates the simulator drew in that window, each queue
	// weighted by its events there.
	if timed && est.Backend == serve.BackendGibbs && est.Seq != l.lastSeq[s] && est.WindowTasks == l.cfg.WindowTasks {
		truth, events := si.windowRates(int(est.Epoch), est.WindowTasks)
		l.rateErr = append(l.rateErr, rateError(est.Rates, truth, events))
	}
	l.lastSeq[s] = est.Seq
	l.mu.Unlock()
	if l.w.windows && est.Backend == serve.BackendGibbs {
		t0 := time.Now()
		_, err := l.c.Windows(ctx, si.id)
		l.span(spanClientWindows, si.id, t0, time.Now())
		l.mu.Lock()
		l.attempted++
		l.mu.Unlock()
		if err != nil && ctx.Err() == nil {
			l.fail("GET windows %s: %v", si.id, err)
		}
	}
}

// rateError is the mean relative error of the service rates (queues 1..n)
// against the truth, over the queues the truth has a rate for, weighted
// by weights (nil weighs every queue alike).
func rateError(got, truth, weights []float64) float64 {
	if len(got) != len(truth) {
		return math.Inf(1)
	}
	var sum, total float64
	for q := 1; q < len(truth); q++ {
		if !(truth[q] > 0) || math.IsInf(truth[q], 0) {
			continue
		}
		wq := 1.0
		if weights != nil {
			wq = weights[q]
		}
		sum += wq * math.Abs(got[q]-truth[q]) / truth[q]
		total += wq
	}
	return sum / total
}
