package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
)

// traceRing is the span ring of the traced phase: large enough that no
// workload's phase overwrites a span before the benchmark reads the ring
// (chain.spans_lost reports any excess).
const traceRing = 1 << 19

// daemon is qserved running in-process: the serve.Server core behind an
// http.Server on a loopback port. Nothing runs in a child process, so
// close — called on every exit path — leaves no listener, goroutine-held
// connection or temp directory behind.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	addr   string
	dir    string // WAL directory, removed by close ("" when in memory)
	served chan struct{}
	once   sync.Once
}

// startDaemon builds the daemon for w and serves it on 127.0.0.1:0.
// With traceEvery > 0 span sampling is on.
func startDaemon(w workload, traceEvery int) (d *daemon, err error) {
	opts := []serve.Option{}
	if traceEvery > 0 {
		opts = append(opts, serve.WithTraceSampleEvery(traceEvery), serve.WithTraceRing(traceRing))
	}
	d = &daemon{served: make(chan struct{})}
	if w.durable {
		if d.dir, err = os.MkdirTemp("", "qbench-wal-"); err != nil {
			return nil, err
		}
		if d.srv, err = serve.NewDurable(serve.StreamConfig{}, serve.WALConfig{Dir: d.dir}, opts...); err != nil {
			os.RemoveAll(d.dir)
			return nil, err
		}
	} else {
		d.srv = serve.New(serve.StreamConfig{}, opts...)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		os.RemoveAll(d.dir)
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return d, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// waitReady polls /readyz until the daemon serves.
func (d *daemon) waitReady(ctx context.Context, c *serve.Client) error {
	for {
		err := c.Readyz(ctx)
		if err == nil {
			return nil
		}
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) {
			return fmt.Errorf("readyz: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// close tears the daemon down: the listener and every connection close
// and the serve goroutine is waited for, the server drains its executor
// and logs, and the WAL directory is removed. It is idempotent and safe on
// every exit path.
func (d *daemon) close() error {
	var err error
	d.once.Do(func() {
		err = d.hs.Close()
		<-d.served
		d.srv.Close()
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
		if d.dir != "" {
			if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
				err = rerr
			}
		}
	})
	return err
}
