package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// jsonFloatCases returns finite float64s covering every encoding regime:
// raw random bit patterns (subnormals and huge magnitudes included),
// log-uniform magnitudes across the 'f'/'e' switch points, integers, and
// the boundary values themselves.
func jsonFloatCases(n int) []float64 {
	r := xrand.New(4242)
	out := []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 1e-7, 1e-10, 1e-100, 1e20, 1e22, 1e300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308}
	for len(out) < n {
		var v float64
		switch r.Intn(3) {
		case 0:
			v = math.Float64frombits(r.Uint64())
		case 1:
			v = math.Pow(10, r.Uniform(-30, 30))
		default:
			v = float64(int64(r.Uint64()) >> r.Intn(64))
		}
		if r.Intn(2) == 0 {
			v = -v
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// TestJSONFloatMatchesEncodingJSON pins JSONFloat's encoder to
// encoding/json's float64 output byte for byte, and its decoder to an
// exact round trip.
func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range jsonFloatCases(100000) {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := JSONFloat(v).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON(%v) = %s, encoding/json %s", v, got, want)
		}
		var back JSONFloat
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("UnmarshalJSON(%s): %v", got, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Fatalf("round trip of %v gave %v", v, float64(back))
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, _ := JSONFloat(v).MarshalJSON(); string(got) != "null" {
			t.Fatalf("MarshalJSON(%v) = %s, want null", v, got)
		}
	}
	var f JSONFloat
	if err := f.UnmarshalJSON([]byte("null")); err != nil || !math.IsNaN(float64(f)) {
		t.Fatalf("null decoded to %v, %v", f, err)
	}
	if err := f.UnmarshalJSON([]byte(`"1"`)); err == nil {
		t.Fatal("a JSON string decoded as a number")
	}
}

// testSnapshots builds an estimate and a windowed snapshot with NaN (null)
// cells, as a stream with idle queues publishes them.
func testSnapshots(seq uint64) (*Estimate, *WindowsSnapshot) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	nan := JSONFloat(math.NaN())
	est := &Estimate{Stream: "s<&>", Seq: seq, Epoch: 10 * seq, Lambda: float64(seq), Rates: []float64{float64(seq), 2.5, 1e-9},
		MeanService: []JSONFloat{nan, 0.25, 1e22}, MeanWait: []JSONFloat{nan, 3e-7, nan}, Bottleneck: 1,
		WindowTasks: 40, WindowEvents: 80, WindowStart: 1.5, WindowEnd: 9.75, ComputedAt: at, ElapsedMS: 12.5,
		Backend: BackendGibbs}
	ws := &WindowsSnapshot{Stream: "s<&>", Seq: seq, Epoch: 10 * seq, ComputedAt: at, Bottleneck: []int{1, -1},
		Queues: [][]WindowCell{
			{{Queue: 0, Lo: 0, Hi: 1, Events: 3, MeanService: 0.5, MeanWait: nan}, {Queue: 0, Lo: 1, Hi: 2, MeanService: nan, MeanWait: nan}},
			{{Queue: 1, Lo: 0, Hi: 1, Events: 2, MeanService: 1e-8, MeanWait: 4}, {Queue: 1, Lo: 1, Hi: 2, MeanService: nan, MeanWait: nan}},
		}}
	return est, ws
}

// TestSnapshotBodyMatchesWriteJSON checks that a cached body, spliced with
// any staleness, is byte-identical to writeJSON of the snapshot carrying
// that staleness, headers and status included.
func TestSnapshotBodyMatchesWriteJSON(t *testing.T) {
	est, ws := testSnapshots(3)
	var estCache, wsCache snapshotCache
	for _, staleness := range []float64{0, 1e-7, 0.125, 3.5, 1234.5678901, 2e21} {
		check := func(name string, cache *snapshotCache, src any, withStaleness any) {
			t.Helper()
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, withStaleness)
			got := httptest.NewRecorder()
			body := cache.body(src)
			if body == nil {
				t.Fatalf("%s: no cached body", name)
			}
			body.write(got, staleness)
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("%s: status/header %d %q, writeJSON %d %q", name, got.Code, got.Header().Get("Content-Type"),
					want.Code, want.Header().Get("Content-Type"))
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s at staleness %v:\n%s\nwriteJSON:\n%s", name, staleness, got.Body, want.Body)
			}
		}
		e := *est
		e.StalenessMS = staleness
		check("estimate", &estCache, est, &e)
		w := *ws
		w.StalenessMS = staleness
		check("windows", &wsCache, ws, &w)
	}
	if !bytes.Contains(estCache.p.Load().head, []byte(`"mean_service": [
    null,`)) {
		t.Fatal("NaN cell did not encode as null")
	}

	// A republish is a new pointer: the cache re-encodes it.
	est2, _ := testSnapshots(4)
	before := estCache.body(est)
	if again := estCache.body(est); again != before {
		t.Fatal("unchanged snapshot was re-encoded")
	}
	after := estCache.body(est2)
	if after == before || !bytes.Contains(after.head, []byte(`"seq": 4,`)) {
		t.Fatalf("republished snapshot served stale bytes:\n%s", after.head)
	}

	// A snapshot encoding/json rejects falls back on writeJSON.
	bad := *est
	bad.Rates = []float64{math.NaN()}
	if estCache.body(&bad) != nil {
		t.Fatal("unencodable snapshot cached")
	}
}

// TestSnapshotCacheConcurrentPublish publishes estimates while concurrent
// GETs read them through the handler (run it with -race): every response
// must be one whole published snapshot, and seq must never go backwards
// for a reader.
func TestSnapshotCacheConcurrentPublish(t *testing.T) {
	srv, c := newTestServer(t)
	if err := c.CreateStream(context.Background(), "s", StreamConfig{NumQueues: 3}); err != nil {
		t.Fatal(err)
	}
	st := srv.lookup("s")
	est, ws := testSnapshots(1)
	est.Stream, ws.Stream = "s", "s"
	st.windows.Store(ws)
	st.estimate.Store(est)
	const publishes = 100
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("GETs still served seq %d of %d at the deadline", last, publishes)
					return
				}
				for _, path := range []string{"/v1/streams/s/windows", "/v1/streams/s/estimate"} {
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					var got struct {
						Seq    uint64  `json:"seq"`
						Epoch  uint64  `json:"epoch"`
						Lambda float64 `json:"lambda"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
						errs <- fmt.Errorf("%s: %v: %s", path, err, rec.Body)
						return
					}
					if got.Epoch != 10*got.Seq || (path == "/v1/streams/s/estimate" && got.Lambda != float64(got.Seq)) {
						errs <- fmt.Errorf("%s: torn snapshot %+v", path, got)
						return
					}
					if path == "/v1/streams/s/estimate" {
						if got.Seq < last {
							errs <- fmt.Errorf("seq went back from %d to %d", last, got.Seq)
							return
						}
						last = got.Seq
						if got.Seq == publishes {
							return
						}
					}
				}
			}
		}()
	}
	for seq := uint64(2); seq <= publishes; seq++ {
		est, ws := testSnapshots(seq)
		est.Stream, ws.Stream = "s", "s"
		st.windows.Store(ws)
		st.estimate.Store(est)
		time.Sleep(20 * time.Microsecond) // let GETs land between publishes
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
