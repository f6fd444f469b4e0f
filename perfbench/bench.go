package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/server"
)

const (
	datasetName = "bench"
	// Set-up, restart and catch-up are each repeated at least minReps
	// times, and while they have taken less than repBudget in all, up to
	// maxReps times; the metric is the median. Cheap steps get more
	// repetitions, which steadies them, and costly ones stay affordable.
	minReps   = 3
	maxReps   = 31
	repBudget = 3 * time.Second
	// replicaPoll is the replicas' sync interval, well below catch-up time.
	replicaPoll = 5 * time.Millisecond
	// pollEvery is how often the benchmark asks a catching-up replica.
	pollEvery = 2 * time.Millisecond
)

// bench is one run of one workload.
type bench struct {
	spec    *workloadSpec
	seed    uint64
	seconds time.Duration
	rec     *recorder // nil in an untraced run
	work    string    // scratch directory inside the checkout
	out     *os.File  // human-readable progress and ladders

	t       tally
	callers []*caller

	e2e     map[string]float64
	layer   map[string]float64
	samples map[string][]float64 // per-layer samples, reported as medians
	ladders []string

	// closeSecs is the median time to close the primary, for the
	// recovery ladder.
	closeSecs float64
	// releaseFsyncs and releaseFsyncMs are the number and total time of
	// the WAL fsyncs each session-release replay made, for its ladder.
	releaseFsyncs  []float64
	releaseFsyncMs []float64

	// Filled by the timed phase.
	phaseWall  time.Duration
	gcCycles   uint32
	allocBytes uint64
}

func (b *bench) traced() bool { return b.rec != nil }

// recording reports whether spans are being recorded right now.
func (b *bench) recording() bool { return b.rec != nil && b.rec.on.Load() }

// started is when the process started; progress lines carry the time
// since.
var started = time.Now()

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "[%6.2fs] "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

// newCaller returns an analyst whose retries the closed-loop guard checks.
func (b *bench) newCaller(base string) *caller {
	cl := newCaller(base, b.traced())
	b.callers = append(b.callers, cl)
	return cl
}

// poller returns a client for probing a node that may not answer yet:
// one attempt per call, outside the closed-loop guard.
func poller(base string) *client.Client {
	return client.New(base, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
}

// again reports whether a step repeated i times, taking total so far,
// should run once more.
func again(i int, total float64) bool {
	return i < minReps || (i < maxReps && total < repBudget.Seconds())
}

// setupRepeated sets up from nothing, each time in a fresh data
// directory, and keeps the last set-up for the run. setup_s is the median
// set-up time.
func (b *bench) setupRepeated(setup func(dir string) (*node, error)) (*node, string, error) {
	var secs []float64
	for i := 0; ; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("primary-%d", i))
		runtime.GC()
		start := time.Now()
		n, err := setup(dir)
		if err != nil {
			return nil, "", fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if !again(i+1, sum(secs)) {
			b.e2e["setup_s"] = median(secs)
			b.logf("setup_s: %v", secs)
			return n, dir, nil
		}
		if err := n.stop(); err != nil {
			return nil, "", fmt.Errorf("stopping set-up %d: %w", i+1, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
	}
}

// timedPhase runs body for the run's duration. In a traced run the first
// half is measured with span recording off and the second half with it
// on, so the run can report what tracing costs.
func (b *bench) timedPhase(body func(ctx context.Context)) {
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), b.seconds)
	defer cancel()
	var before runtime.MemStats
	var flip *time.Timer
	half := make(chan runtime.MemStats, 1)
	if b.traced() {
		b.rec.on.Store(false)
		flip = time.AfterFunc(b.seconds/2, func() {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			b.rec.on.Store(true)
			half <- m
		})
	} else {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	body(ctx)
	b.phaseWall = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if flip != nil {
		if flip.Stop() {
			before = after // the phase ended before its second half began
		} else {
			before = <-half
		}
		b.rec.on.Store(true)
	}
	b.gcCycles = after.NumGC - before.NumGC
	b.allocBytes = after.TotalAlloc - before.TotalAlloc
}

// queryLoop is a closed-loop reader: it sends pool batches, starting at
// index first, to the release target names until ctx ends, pausing think
// after each reply, and hands every answer to observe along with target's
// state before the call.
func (b *bench) queryLoop(ctx context.Context, cl *caller, pool []queryBatch, first int, think time.Duration,
	target func() (id string, state uint64), observe func(idx int, res *client.QueryResult, state uint64) string) {
	for i := first; ctx.Err() == nil; i++ {
		if i > first && think > 0 && !sleepUntil(ctx, time.Now().Add(think)) {
			return
		}
		idx := i % len(pool)
		id, state := target()
		tracing := b.recording()
		var res *client.QueryResult
		lat, err := timed(func() (err error) {
			res, err = cl.c.Query(context.Background(), datasetName, id, pool[idx].req)
			return err
		})
		o := opRec{kind: "query", lat: lat, trace: cl.trace(), traced: tracing, queries: len(pool[idx].rects)}
		if err == nil && len(res.Counts) != len(pool[idx].rects) {
			err = fmt.Errorf("%d counts for %d queries", len(res.Counts), len(pool[idx].rects))
		}
		if err == nil {
			o.key = observe(idx, res, state)
		}
		b.t.op(o, err)
	}
}

// replyLog keeps the first answer to each (release, batch) pair and
// checks that every later answer is bit-identical to it; the first
// answers are checked against replays at the end of the run.
type replyLog struct {
	t     *tally
	mu    sync.Mutex
	first map[string][]float64
}

func newReplyLog(t *tally) *replyLog { return &replyLog{t: t, first: make(map[string][]float64)} }

func replyKey(id string, idx int) string { return id + "|" + strconv.Itoa(idx) }

func (l *replyLog) observe(id string, idx int, counts []float64) string {
	key := replyKey(id, idx)
	l.mu.Lock()
	prev, seen := l.first[key]
	if !seen {
		l.first[key] = append([]float64(nil), counts...)
	}
	l.mu.Unlock()
	if seen {
		l.t.check(sameBits(prev, counts), "release %s batch %d answered differently on a repeat", id, idx)
	}
	return key
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// servedState is what a node serves for the dataset: the budget
// position and every release's artifact bytes.
type servedState struct {
	info      *client.DatasetInfo
	ids       []string
	artifacts map[string][]byte
}

// snapshot reads the dataset's state from a node.
func snapshot(c *client.Client) (*servedState, error) {
	ctx := context.Background()
	info, err := c.Dataset(ctx, datasetName)
	if err != nil {
		return nil, err
	}
	s := &servedState{info: info, artifacts: make(map[string][]byte)}
	for _, r := range info.Releases {
		a, err := c.Release(ctx, datasetName, r.ID)
		if err != nil {
			return nil, err
		}
		s.ids = append(s.ids, r.ID)
		s.artifacts[r.ID] = a.Payload
	}
	return s, nil
}

// verifyNode checks that the node c talks to serves exactly what want
// describes: spent ε, release IDs, stream epoch, and bit-identical
// artifacts (fetched one at a time). A replica does not receive unsealed
// stream rows, so only a restart is held to the pending count.
func (b *bench) verifyNode(what string, c *client.Client, want *servedState, pending bool) {
	ctx := context.Background()
	info, err := c.Dataset(ctx, datasetName)
	if err != nil {
		b.t.fail("%s: reading the dataset: %v", what, err)
		return
	}
	b.t.check(info.EpsilonSpent == want.info.EpsilonSpent, "%s: spent ε %v, want %v",
		what, info.EpsilonSpent, want.info.EpsilonSpent)
	var ids []string
	for _, r := range info.Releases {
		ids = append(ids, r.ID)
	}
	b.t.check(strings.Join(ids, ",") == strings.Join(want.ids, ","), "%s: releases %v, want %v", what, ids, want.ids)
	same := 0
	for _, id := range want.ids {
		a, err := c.Release(ctx, datasetName, id)
		if err == nil && bytes.Equal(a.Payload, want.artifacts[id]) {
			same++
		}
	}
	b.t.check(same == len(want.ids), "%s: %d of %d artifacts bit-identical", what, same, len(want.ids))
	if want.info.Stream != nil {
		b.t.check(info.Stream != nil && info.Stream.LastEpoch == want.info.Stream.LastEpoch,
			"%s: stream epoch differs", what)
		if pending && info.Stream != nil {
			b.t.check(info.Stream.Pending == want.info.Stream.Pending, "%s: %d rows pending, want %d",
				what, info.Stream.Pending, want.info.Stream.Pending)
		}
	}
}

// catchUp starts empty replicas of the primary one after another and
// times each until it holds every release; /readyz is not consulted
// because it latches before the data is there. repl.catchup_s is the
// median.
func (b *bench) catchUp(primary string, want *servedState) error {
	var secs []float64
	for i := 0; again(i, sum(secs)); i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("replica-%d", i))
		runtime.GC()
		start := time.Now()
		n, err := startNode(server.Options{DataDir: dir, ReplicaOf: primary, ReplicaPoll: replicaPoll}, nil)
		if err != nil {
			return fmt.Errorf("starting replica: %w", err)
		}
		p := poller(n.url)
		deadline := start.Add(120 * time.Second)
		caught := false
		for time.Now().Before(deadline) {
			info, err := p.Dataset(context.Background(), datasetName)
			if err == nil && info.NumReleases == want.info.NumReleases && info.EpsilonSpent == want.info.EpsilonSpent &&
				(want.info.Stream == nil || (info.Stream != nil && info.Stream.LastEpoch == want.info.Stream.LastEpoch)) {
				caught = true
				break
			}
			time.Sleep(pollEvery)
		}
		elapsed := time.Since(start)
		if b.t.check(caught, "replica %d did not catch up within 120s", i+1) {
			secs = append(secs, elapsed.Seconds())
			b.verifyNode(fmt.Sprintf("replica %d", i+1), p, want, false)
		}
		if err := n.stop(); err != nil {
			return fmt.Errorf("stopping replica: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if len(secs) == 0 {
		return fmt.Errorf("no replica caught up")
	}
	b.layer["repl.catchup_s"] = median(secs)
	b.logf("catch-up (replica poll %v): %v s", replicaPoll, secs)
	return nil
}

// recoverRepeated restarts the primary on its data directory: each time
// the running node is closed, server.New recovers the directory, and the
// clock stops when the dataset answers. The recovered state must equal
// want. It returns the last node, still running. server.recover_s is the
// median.
func (b *bench) recoverRepeated(n *node, dir string, want *servedState, probe func()) (*node, error) {
	var secs, closes []float64
	for i := 0; again(i, sum(secs)); i++ {
		runtime.GC()
		start := time.Now()
		if err := n.stop(); err != nil {
			return nil, fmt.Errorf("closing primary: %w", err)
		}
		closed := time.Since(start)
		if i == 0 && probe != nil {
			// Store-layer probes need the directory unlocked; they run
			// outside the clock.
			probe()
			start = time.Now().Add(-closed)
		}
		var err error
		n, err = startNode(server.Options{DataDir: dir}, b.rec)
		if err != nil {
			return nil, fmt.Errorf("recovering: %w", err)
		}
		_, err = poller(n.url).Dataset(context.Background(), datasetName)
		elapsed := time.Since(start)
		if !b.t.check(err == nil, "recovered node does not answer: %v", err) {
			continue
		}
		secs = append(secs, elapsed.Seconds())
		closes = append(closes, closed.Seconds())
		b.verifyNode(fmt.Sprintf("restart %d", i+1), poller(n.url), want, true)
	}
	if len(secs) == 0 {
		return n, fmt.Errorf("no restart recovered")
	}
	b.layer["server.recover_s"] = median(secs)
	b.closeSecs = median(closes)
	b.logf("restart: %v s", secs)
	return n, nil
}

// decodeAll decodes every served artifact, in a traced run timing each.
func (b *bench) decodeAll(st *servedState) (map[string]*privtree.SpatialTree, []float64, error) {
	trees := make(map[string]*privtree.SpatialTree, len(st.ids))
	var times []float64
	for _, id := range st.ids {
		var rel *privtree.Release
		d, err := timed(func() (err error) {
			rel, err = privtree.Decode(st.artifacts[id])
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("decoding %s: %w", id, err)
		}
		t, ok := rel.Spatial()
		if !ok {
			return nil, nil, fmt.Errorf("release %s is not spatial", id)
		}
		trees[id] = t
		times = append(times, ms(d))
		b.rec.add(span{Layer: "privtree", Name: "decode", Start: time.Now().Add(-d), Dur: d})
	}
	return trees, times, nil
}

// closedLoopGuard fails the run if any analyst retried or slept in
// backoff, or the server shed a request: such a run measures waiting,
// not serving.
func (b *bench) closedLoopGuard() {
	var retries uint64
	var backoff time.Duration
	for _, cl := range b.callers {
		s := cl.c.Stats()
		retries += s.Retries
		backoff += s.Backoff
	}
	b.t.check(retries == 0 && backoff == 0, "closed-loop guard: %d retries, %v backoff", retries, backoff)
	if b.rec != nil {
		shed := 0
		b.rec.mu.Lock()
		for _, s := range b.rec.spans {
			if s.Status == 429 || s.Status == 503 {
				shed++
			}
		}
		b.rec.mu.Unlock()
		b.t.check(shed == 0, "closed-loop guard: server shed %d requests", shed)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// opStats sets the op's latency metrics from the workload's untraced ops,
// and logs how late a paced caller sent them.
func (b *bench) opStats() {
	ops := b.t.selectOps(b.spec.op, false)
	lat := latencies(ops)
	b.layer["client.op.p50_ms"] = quantile(lat, 0.5)
	b.layer["client.op.tail_ms"] = quantile(lat, b.spec.tail)
	var late []float64
	for _, o := range ops {
		late = append(late, ms(o.late))
	}
	b.logf("op %s: %d samples, p50 %.3f ms, p%g %.3f ms (p90 %.3f, p99 %.3f); sent late by p50 %.3f ms, max %.3f ms; %d GC cycles",
		b.spec.op, len(lat), quantile(lat, 0.5), 100*b.spec.tail, quantile(lat, b.spec.tail), quantile(lat, 0.9), quantile(lat, 0.99),
		quantile(late, 0.5), quantile(late, 1), b.gcCycles)
}

// queriesPerSecond sets client.queries_per_s from every query answered
// in the timed phase.
func (b *bench) queriesPerSecond() {
	var n int
	for _, traced := range []bool{false, true} {
		for _, o := range b.t.selectOps("query", traced) {
			n += o.queries
		}
	}
	b.layer["client.queries_per_s"] = float64(n) / b.phaseWall.Seconds()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
