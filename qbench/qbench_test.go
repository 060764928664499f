package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestGenerateDeterministic: the same seed gives byte-identical NDJSON and
// the same schedule; another seed gives other inputs.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.posts) == 0 || len(a.posts) != len(b.posts) {
			t.Fatalf("%s: %d and %d posts", w.name, len(a.posts), len(b.posts))
		}
		events := 0
		for _, p := range a.posts {
			events += p.events
		}
		if n := len(lines(a)); n != events {
			t.Fatalf("%s: %d NDJSON lines for %d events", w.name, n, events)
		}
		same := len(a.posts) == len(c.posts)
		for i := range a.posts {
			pa, pb := a.posts[i], b.posts[i]
			if pa.stream != pb.stream || pa.at != pb.at || !bytes.Equal(pa.body, pb.body) {
				t.Fatalf("%s: post %d differs between runs of one seed", w.name, i)
			}
			if same && !bytes.Equal(pa.body, c.posts[i].body) {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// small shrinks a workload for the self-tests: a window and an epoch
// small enough that each one-second phase publishes Gibbs estimates of a
// full window, even under the race detector.
func small(name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	w.streams = min(w.streams, 2)
	w.cfg.WindowTasks = 200
	w.cfg.EMIters = 60
	return w
}

// daemons records every daemon a run starts.
type daemons struct {
	mu   sync.Mutex
	list []*daemon
}

func (ds *daemons) add(d *daemon) int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.list = append(ds.list, d)
	return len(ds.list)
}

// assertTornDown checks that no daemon of the run still accepts
// connections and that every WAL directory is gone.
func (ds *daemons) assertTornDown(t *testing.T) {
	t.Helper()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.list) == 0 {
		t.Fatal("no daemon was started")
	}
	for _, d := range ds.list {
		if c, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
			c.Close()
			t.Errorf("daemon at %s still accepts connections", d.addr)
		}
		if d.dir != "" {
			if _, err := os.Stat(d.dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("WAL directory %s still exists (stat: %v)", d.dir, err)
			}
		}
	}
}

// TestTeardownAfterRun: after a successful traced run and after a run
// whose correctness check fails, nothing the run started is left.
func TestTeardownAfterRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		forceFail bool
	}{{"durable-bulk", false}, {"durable-bulk", true}, {"hot-stream", true}} {
		t.Setenv("TMPDIR", t.TempDir())
		var ds daemons
		rep, err := bench(context.Background(), small(tc.name), 3, 2*time.Second, !tc.forceFail,
			phaseOpts{setups: 2, forceFail: tc.forceFail, onDaemon: func(d *daemon) { ds.add(d) }})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.correct() == tc.forceFail {
			t.Errorf("%s: correct = %v with forceFail = %v (checks %+v, errors %v)",
				tc.name, rep.correct(), tc.forceFail, rep.Checks, rep.Errors)
		}
		ds.assertTornDown(t)
		if left, _ := os.ReadDir(os.Getenv("TMPDIR")); len(left) != 0 {
			t.Errorf("%s: temp files left: %v", tc.name, left)
		}
		assertDeclared(t, rep)
	}
}

// assertDeclared checks that a run prints exactly the metrics, with the
// units, that BENCHMARK.json declares for its mode.
func assertDeclared(t *testing.T, rep *report) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := spec.EndToEnd
	if rep.Traced {
		want = spec.PerLayer
	}
	got := make(map[string]string, len(rep.metrics))
	for _, m := range rep.metrics {
		got[m.name] = m.unit
	}
	for _, m := range want {
		if unit, ok := got[m.Name]; !ok || unit != m.Unit {
			t.Errorf("declared metric %s (%s): printed with unit %q (present %v)", m.Name, m.Unit, unit, ok)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("metric %s is printed but not declared in BENCHMARK.json", name)
	}
}

// TestTeardownOnSignal: SIGINT in the middle of the timed phase ends the
// run with a non-zero exit, no result line, and nothing left behind.
func TestTeardownOnSignal(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var ds daemons
	opts := phaseOpts{onDaemon: func(d *daemon) {
		if ds.add(d) == setups-setups/2 {
			go func() {
				time.Sleep(500 * time.Millisecond)
				syscall.Kill(os.Getpid(), syscall.SIGINT)
			}()
		}
	}}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "durable-bulk", "--seed", "2", "--seconds", "5"}, &stdout, &stderr, opts)
	if code == 0 {
		t.Fatalf("exit code 0 after SIGINT; stderr: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted run printed a result: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "canceled") {
		t.Errorf("stderr does not report the cancellation: %s", stderr.String())
	}
	ds.assertTornDown(t)
	if left, _ := os.ReadDir(os.Getenv("TMPDIR")); len(left) != 0 {
		t.Errorf("temp files left: %v", left)
	}
}

// TestRunRejectsBadFlags: unknown workloads and bad flags exit 2.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-stream", "--trace", "2"},
		{"--workload", "hot-stream", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, phaseOpts{}); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
