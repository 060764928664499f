package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/qnet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// workload is one traffic mix driven against the daemon. Streams replay
// simulated traces in an open loop: every event is due at its simulated
// departure time divided by speed, and the sender ships the events that
// fall due within one tick together, at the tick's end, in POSTs of at
// most batch events.
type workload struct {
	name    string
	streams int
	network func() (*qnet.Network, error)
	// throughput is the network's task completion rate in simulated tasks
	// per second; it sizes the simulation to the replay horizon.
	throughput float64
	observe    float64
	speed      float64
	cfg        serve.StreamConfig
	batch      int
	tick       time.Duration
	// durable runs the daemon on a write-ahead log in a temp directory
	// (serve.NewDurable with its default batch fsync).
	durable bool
	// windows makes the poller read /windows beside /estimate.
	windows bool
	// traceEvery is the daemon's span sampling rate in the traced phase.
	traceEvery int
}

// paperNetwork is the paper's synthetic three-tier network with replica
// counts {1, 2, 4}, λ = 10 and µ = 5. Its single web replica is
// overloaded, so tasks complete at its service rate.
func paperNetwork() (*qnet.Network, error) {
	return qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4})
}

// workloads are the traffic mixes; BENCHMARK.json names them and why each
// was chosen.
var workloads = []workload{
	{
		// One busy stream: sweep, slide and publish cost set freshness.
		name:       "hot-stream",
		streams:    1,
		network:    paperNetwork,
		throughput: 5,
		observe:    0.25,
		speed:      20,
		cfg:        serve.StreamConfig{NumQueues: 8},
		batch:      64,
		tick:       20 * time.Millisecond,
		traceEvery: 4,
	},
	{
		// Large POSTs onto the write-ahead log, one stream per inference
		// worker: decode, apply and fsync set ingest latency.
		name:       "durable-bulk",
		streams:    2,
		network:    paperNetwork,
		throughput: 5,
		observe:    0.25,
		speed:      200,
		cfg:        serve.StreamConfig{NumQueues: 8, WindowTasks: 500},
		batch:      1024,
		tick:       300 * time.Millisecond,
		durable:    true,
		windows:    true,
		traceEvery: 4,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// post is one scheduled ingest request.
type post struct {
	stream int
	at     time.Duration // intended send time, from the start of the phase
	body   []byte        // canonical NDJSON
	events int
	seals  int // final events in body
}

// streamInput is one stream's generated trace.
type streamInput struct {
	id string
	// rates are the simulator's true rates (index 0 is λ).
	rates []float64
	// tasks are the stream's sealed tasks in seal order, as the store
	// hands them to the warm window.
	tasks []core.SlideTask
	// sealAt[k-1] is the intended send time of the POST carrying the
	// final event of the stream's k-th sealed task.
	sealAt []time.Duration
	// svcSum[k][q] and svcN[k][q] total the simulated service times and
	// event counts at queue q over the first k sealed tasks, so the
	// complete-data rates of any window of sealed tasks are two
	// subtractions away.
	svcSum [][]float64
	svcN   [][]float64
}

// windowRates returns the complete-data MLE of the service rates over the
// sealed tasks (epoch-n, epoch] — the rates the simulator actually drew in
// the window an estimate of that epoch and size was computed from — and
// each queue's event count in that window.
func (si *streamInput) windowRates(epoch, n int) (rates, events []float64) {
	hi := min(epoch, len(si.svcSum)-1)
	lo := max(hi-n, 0)
	rates = make([]float64, len(si.rates))
	events = make([]float64, len(si.rates))
	for q := 1; q < len(rates); q++ {
		events[q] = si.svcN[hi][q] - si.svcN[lo][q]
		rates[q] = events[q] / (si.svcSum[hi][q] - si.svcSum[lo][q])
	}
	return rates, events
}

// inputs is everything the daemon will be sent in one phase.
type inputs struct {
	streams []streamInput
	posts   []post // ordered by intended send time
}

// mixSeed derives an independent generator seed for one stream.
func mixSeed(seed uint64, stream int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + 1
}

// generate builds the phase's inputs from seed: simulated traces covering
// horizon of wall time, encoded as the NDJSON the sender will post. The
// same workload, seed and horizon always give byte-identical bodies.
func generate(w workload, seed uint64, horizon time.Duration) (*inputs, error) {
	in := &inputs{}
	for s := 0; s < w.streams; s++ {
		if err := in.addStream(w, seed, s, horizon); err != nil {
			return nil, err
		}
	}
	// Merge the streams' POSTs into one schedule.
	sort.SliceStable(in.posts, func(a, b int) bool { return in.posts[a].at < in.posts[b].at })
	return in, nil
}

// emission is one event with the wall time it falls due, in seconds from
// the start of the phase, and its simulated service time.
type emission struct {
	due float64
	ev  serve.IngestEvent
	svc float64
}

// simulate runs stream s's network and returns its events in the order
// they fall due within horizon, each at its departure time.
func simulate(w workload, seed uint64, s int, horizon time.Duration) ([]emission, []float64, error) {
	net, err := w.network()
	if err != nil {
		return nil, nil, err
	}
	if net.NumQueues() != w.cfg.NumQueues {
		return nil, nil, fmt.Errorf("%s: network has %d queues, config %d", w.name, net.NumQueues(), w.cfg.NumQueues)
	}
	rng := xrand.New(mixSeed(seed, s))
	tasks := int(math.Ceil(w.throughput*horizon.Seconds()*w.speed*1.05)) + 50
	es, err := sim.Run(net, rng, sim.Options{Tasks: tasks})
	if err != nil {
		return nil, nil, err
	}
	es.ObserveTasks(rng, w.observe)
	t0 := math.Inf(1)
	for k := 0; k < es.NumTasks; k++ {
		if ids := es.ByTask[k]; len(ids) > 1 {
			t0 = math.Min(t0, es.Dep[ids[1]])
		}
	}
	var emits []emission
	for k := 0; k < es.NumTasks; k++ {
		ids := es.ByTask[k]
		name := "t" + strconv.Itoa(k)
		for j, id := range ids[1:] {
			due := (es.Dep[id] - t0) / w.speed
			if due >= horizon.Seconds() {
				break // the task's later events are past the horizon too
			}
			e := &es.Events[id]
			emits = append(emits, emission{due: due, svc: es.ServiceTime(id), ev: serve.IngestEvent{
				Task: name, State: e.State, Queue: e.Queue,
				Arrival: es.Arr[id], Depart: es.Dep[id],
				ObsArrival: e.ObsArrival, ObsDepart: e.ObsDepart,
				Final: j == len(ids)-2,
			}})
		}
	}
	sort.SliceStable(emits, func(i, j int) bool { return emits[i].due < emits[j].due })
	return emits, net.ServiceRates(), nil
}

// addStream simulates stream s and appends its POSTs: the events due in
// one tick go out together at the tick's end, at most w.batch per POST.
func (in *inputs) addStream(w workload, seed uint64, s int, horizon time.Duration) error {
	emits, rates, err := simulate(w, seed, s, horizon)
	if err != nil {
		return err
	}
	nq := w.cfg.NumQueues
	si := streamInput{id: fmt.Sprintf("%s-%02d", w.name, s), rates: rates,
		svcSum: [][]float64{make([]float64, nq)}, svcN: [][]float64{make([]float64, nq)}}
	type openTask struct {
		task core.SlideTask
		svc  []float64
	}
	open := make(map[string]*openTask)
	var batch []serve.IngestEvent
	flush := func(at time.Duration) error {
		body, err := serve.AppendEvents(nil, batch)
		if err != nil {
			return err
		}
		seals := 0
		for i := range batch {
			if batch[i].Final {
				seals++
			}
		}
		in.posts = append(in.posts, post{stream: s, at: at, body: body, events: len(batch), seals: seals})
		batch = batch[:0]
		return nil
	}
	// Streams tick out of phase with each other, as independent agents
	// would, so their POSTs do not all fall due at once.
	offset := time.Duration(s) * w.tick / time.Duration(w.streams)
	tickEnd := func(idx int64) time.Duration { return offset + time.Duration(idx+1)*w.tick }
	tick := int64(-1)
	for _, em := range emits {
		if idx := int64(em.due / w.tick.Seconds()); idx != tick {
			if len(batch) > 0 {
				if err := flush(tickEnd(tick)); err != nil {
					return err
				}
			}
			tick = idx
		}
		batch = append(batch, em.ev)
		ev := &em.ev
		ot := open[ev.Task]
		if ot == nil {
			ot = &openTask{task: core.SlideTask{Entry: ev.Arrival, EntryObs: ev.ObsArrival}}
			open[ev.Task] = ot
		}
		ot.task.Events = append(ot.task.Events, core.SlideEvent{Queue: ev.Queue, State: ev.State,
			Arr: ev.Arrival, Dep: ev.Depart, ObsArr: ev.ObsArrival, ObsDep: ev.ObsDepart})
		ot.svc = append(ot.svc, em.svc)
		if ev.Final {
			delete(open, ev.Task)
			sum := append([]float64(nil), si.svcSum[len(si.svcSum)-1]...)
			n := append([]float64(nil), si.svcN[len(si.svcN)-1]...)
			for i, e := range ot.task.Events {
				sum[e.Queue] += ot.svc[i]
				n[e.Queue]++
			}
			si.svcSum, si.svcN = append(si.svcSum, sum), append(si.svcN, n)
			si.tasks = append(si.tasks, ot.task)
			si.sealAt = append(si.sealAt, tickEnd(tick))
		}
		if len(batch) == w.batch {
			if err := flush(tickEnd(tick)); err != nil {
				return err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(tickEnd(tick)); err != nil {
			return err
		}
	}
	in.streams = append(in.streams, si)
	return nil
}

// sealedBy returns how many of the stream's tasks are sealed by POSTs due
// before t.
func (si *streamInput) sealedBy(t time.Duration) int {
	return sort.Search(len(si.sealAt), func(k int) bool { return si.sealAt[k] >= t })
}

// eventSet assembles tasks into an EventSet carrying their observation
// mask, the way the daemon's store builds a window.
func eventSet(numQueues int, tasks []core.SlideTask) (*trace.EventSet, error) {
	sorted := append([]core.SlideTask(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Entry < sorted[j].Entry })
	b := trace.NewBuilder(numQueues)
	type flag struct{ arr, dep bool }
	var flags []flag
	for _, t := range sorted {
		k := b.StartTask(t.Entry)
		flags = append(flags, flag{true, t.EntryObs})
		for _, ev := range t.Events {
			if _, err := b.AddEvent(k, ev.State, ev.Queue, ev.Arr, ev.Dep); err != nil {
				return nil, err
			}
			flags = append(flags, flag{ev.ObsArr, ev.ObsDep})
		}
	}
	es, err := b.Build()
	if err != nil {
		return nil, err
	}
	for i := range es.Events {
		es.Events[i].ObsArrival = flags[i].arr || es.Events[i].Initial()
		es.Events[i].ObsDepart = flags[i].dep
	}
	return es, nil
}
