package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"privtree/client"
	"privtree/internal/server"
)

// node is one in-process privtreed: server.New behind a loopback
// listener, served by net/http exactly as the daemon serves it.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startNode builds a server from opts and serves it on 127.0.0.1. With a
// recorder, every request's ServeHTTP is timed.
func startNode(opts server.Options, rec *recorder) (*node, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = srv
	if rec != nil {
		h = rec.wrap(srv)
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := n.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: serve: %v\n", err)
		}
	}()
	return n, nil
}

// stop shuts the listener down, waits for the serve loop to exit, and
// closes the server (which releases its stores).
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// caller is one closed-loop (or paced) analyst: a client with its own
// connection pool. In a traced run its transport remembers each call's
// trace ID.
type caller struct {
	c  *client.Client
	tr *http.Transport
	lt *lastTrace
}

func newCaller(base string, traced bool) *caller {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	cl := &caller{tr: tr}
	var rt http.RoundTripper = tr
	if traced {
		cl.lt = &lastTrace{base: tr}
		rt = cl.lt
	}
	cl.c = client.New(base, client.WithHTTPClient(&http.Client{Timeout: 120 * time.Second, Transport: rt}))
	return cl
}

// trace returns the trace ID of the caller's last call ("" untraced).
func (cl *caller) trace() string {
	if cl.lt == nil {
		return ""
	}
	return cl.lt.last()
}

func (cl *caller) close() { cl.tr.CloseIdleConnections() }

// opRec is one timed client call.
type opRec struct {
	kind    string        // register, setup_release, release, release_cached, query, ingest, seal, ...
	lat     time.Duration // from send to decoded reply
	late    time.Duration // paced callers: how long after its due time the call was sent
	start   time.Time
	trace   string
	traced  bool // made while spans were recorded
	queries int
	key     string  // query calls: the release and batch answered
	eps     float64 // release calls: the ε bought
	batch   int     // ingest calls: the batch's index
	epoch   uint64  // sealing ingest calls: the epoch sealed
}

// tally counts operations and output checks, and keeps every failure.
type tally struct {
	mu        sync.Mutex
	ops       []opRec
	attempted int
	failures  []string
}

// op records one client call; a non-nil err counts as a failed operation.
func (t *tally) op(o opRec, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", o.kind, err))
		return
	}
	o.start = time.Now().Add(-o.lat)
	t.ops = append(t.ops, o)
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failures = append(t.failures, "check: "+fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records a failure that is neither an operation nor a check (the
// run could not go on).
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// select returns the recorded ops of the given kind; traced selects the
// ops made while spans were recorded, untraced the others.
func (t *tally) selectOps(kind string, traced bool) []opRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []opRec
	for _, o := range t.ops {
		if o.kind == kind && o.traced == traced {
			out = append(out, o)
		}
	}
	return out
}

func latencies(ops []opRec) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.lat)
	}
	return out
}

// timed runs fn on the calling goroutine and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// sleepUntil waits for t; it returns false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
