// Command qbench is the end-to-end benchmark of qserved. It runs one named
// workload against the daemon's real HTTP surface — serve.New or
// serve.NewDurable behind an http.Server on a loopback port, in this
// process — and prints the metrics a user of the daemon sees: how long
// after an event is sent the served estimate covers it, ingest and
// estimate latencies, throughput, accuracy, memory and set-up time. With
// --trace 1 it instead prints a per-layer breakdown from a traced run of
// the same workload plus timings of each layer's functions on the
// workload's own inputs.
//
// Usage (from the repository root; qbench/run.sh builds and runs it):
//
//	qbench --workload hot-stream --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it carries the
// host fingerprint, each metric's sample count and the correctness
// checks. A bounded metric with no samples fails the run: rate_err_pct
// counts only estimates of a full window, so a phase (half of --seconds
// when traced) must run past the first full window, about 6s on
// hot-stream. The exit code is non-zero when a check fails or the run cannot
// complete; the daemon, its listener and its temp directory are torn
// down on every exit path, including SIGINT and SIGTERM.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds a whole run, set-up and layer timings included.
const runTimeout = 170 * time.Second

// setups is how many times a run sets the daemon up; setup_s is their
// median.
const setups = 120

// tailSeconds is how much input beyond the timed phase is generated, so
// the sender can keep the load on until every measured task is covered.
const tailSeconds = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, phaseOpts{}))
}

// run is main with its outputs and base phase options as parameters, so
// the self-tests can watch the daemons a run starts.
func run(args []string, stdout, stderr io.Writer, base phaseOpts) int {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 40, "timed phase length in seconds")
	traced := fs.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "qbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	rep, err := bench(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, base)
	if err != nil {
		fmt.Fprintf(stderr, "qbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "qbench: %v\n", err)
		return 1
	}
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "qbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report is one run's result.
type report struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Host     host           `json:"host"`
	PollMS   float64        `json:"poll_period_ms"`
	Samples  map[string]int `json:"samples"`
	// Extra carries the unbounded end-to-end timings of untraced runs.
	Extra     map[string]float64 `json:"extra,omitempty"`
	Checks    []check            `json:"checks"`
	Errors    []string           `json:"errors,omitempty"`
	attempted int
	failed    int
	metrics   metricSet
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// write prints the detail line and then the result line.
func (r *report) write(out io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		r.Samples[m.name] = m.samples
		vals[m.name] = value{Value: finite(m.value), Unit: m.unit}
	}
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", detail, result)
	return err
}

// finite maps a missing measurement (NaN, ±Inf) to 0 so the result stays
// valid JSON; its sample count in the detail line is 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// bench runs one workload: generate its inputs, run the untraced phase,
// and with traced also the traced phase and the layer timings.
func bench(ctx context.Context, w workload, seed uint64, seconds time.Duration, traced bool, base phaseOpts) (*report, error) {
	in, err := generate(w, seed, seconds+tailSeconds)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds.Seconds(), Traced: traced,
		Host: fingerprint(), PollMS: float64(pollPeriod) / float64(time.Millisecond),
		Samples: make(map[string]int)}
	opts := base
	opts.seconds = seconds
	if traced {
		// A traced run fits its two phases, untraced for the trace
		// overhead and traced for the breakdown, in the time of one.
		opts.seconds = seconds / 2
	}
	if opts.setups == 0 {
		opts.setups = setups
	}
	plain, err := runPhase(ctx, w, in, opts)
	if err != nil {
		return nil, err
	}
	rep.add(plain)
	if !traced {
		rep.metrics = plain.e2e
		rep.Extra = make(map[string]float64, len(plain.extra))
		for _, m := range plain.extra {
			rep.Extra[m.name] = finite(m.value)
			rep.Samples[m.name] = m.samples
		}
		return rep, nil
	}
	opts.setups = 1
	opts.traceEvery = w.traceEvery
	tr, err := runPhase(ctx, w, in, opts)
	if err != nil {
		return nil, err
	}
	rep.add(tr)
	layers, err := perLayer(ctx, in, plain, tr)
	if err != nil {
		return nil, err
	}
	rep.metrics = layers
	return rep, nil
}

func (r *report) add(p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.Checks = append(r.Checks, p.checks...)
	r.Errors = append(r.Errors, p.errs...)
}

// host identifies the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}
