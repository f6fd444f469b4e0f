package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/dataset"
	"privtree/internal/geom"
	"privtree/internal/repl"
	"privtree/internal/workload"
)

// Replays and probes of single layers. Each runs after the timed phase on
// the identical inputs the served calls used, through the layer's own
// public functions, and feeds the per-layer metrics and the ladders.

// sample adds one observation of a per-layer metric (reported as the
// median of its samples).
func (b *bench) sample(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}

// ended is the state the end phase leaves for a workload's checks.
type ended struct {
	state *servedState
	trees map[string]*privtree.SpatialTree
}

// endPhase runs what every workload ends with: a snapshot of what the
// primary serves, replica catch-up, restart recovery, and the decode of
// every served artifact.
func (b *bench) endPhase(n *node, dir string) (*ended, error) {
	admin := b.newCaller(n.url)
	defer admin.close()
	want, err := snapshot(admin.c)
	if err != nil {
		_ = n.stop()
		return nil, fmt.Errorf("reading the primary: %w", err)
	}
	b.e2e["store_bytes_per_release"] = float64(want.info.StoreBytes) / float64(want.info.NumReleases)
	if b.traced() {
		if err := b.replProbe(n.url, admin, want); err != nil {
			_ = n.stop()
			return nil, err
		}
	}
	if err := b.catchUp(n.url, want); err != nil {
		_ = n.stop()
		return nil, err
	}
	var probe func()
	if b.traced() {
		probe = func() { b.storeProbe(dir) }
	}
	n, err = b.recoverRepeated(n, dir, want, probe)
	if err == nil {
		// Peak memory is read before the benchmark decodes, replays and
		// counts exactly, so it is the server's, replicas' and callers'.
		b.e2e["peak_rss_mb"], err = peakRSSMB()
	}
	if n != nil {
		if serr := n.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	trees, decode, err := b.decodeAll(want)
	if err != nil {
		return nil, err
	}
	if b.traced() {
		total := sum(decode)
		// A workload that serves few artifacts decodes them again, so the
		// per-artifact figure has at least five samples.
		for i := 0; len(decode) < 5; i++ {
			d, err := timed(func() error { _, err := privtree.Decode(want.artifacts[want.ids[i%len(want.ids)]]); return err })
			if err != nil {
				return nil, err
			}
			decode = append(decode, ms(d))
		}
		for _, d := range decode {
			b.sample("privtree.decode.ms", d)
		}
		for _, id := range want.ids {
			b.sample("core.tree.nodes", float64(trees[id].Nodes()))
			b.sample("core.tree.height", float64(trees[id].Height()))
			b.sample("privtree.envelope.bytes", float64(len(want.artifacts[id])))
		}
		b.ladderLine("recovery", b.layer["server.recover_s"]*1e3, []part{
			{"server.close", b.closeSecs * 1e3},
			{"store.open", b.layer["store.open_ms"]},
			{"privtree.data_load", median(b.samples["privtree.data_load.ms"])},
			{fmt.Sprintf("privtree.decode×%d", len(want.ids)), total},
		}, "WAL fold beyond store.open, registry rebuild, listener start")
		b.ladderLine("catch-up", b.layer["repl.catchup_s"]*1e3, []part{
			{"repl.wal_pull", b.layer["repl.wal_pull_ms"]},
			{fmt.Sprintf("repl.artifact_fetch×%d", len(b.samples["repl.artifact_fetch_ms"])), sum(b.samples["repl.artifact_fetch_ms"])},
			{"privtree.data_load", median(b.samples["privtree.data_load.ms"])},
			{fmt.Sprintf("privtree.decode×%d", len(want.ids)), total},
		}, fmt.Sprintf("registration shipping, sync-pass scheduling (poll %v), WAL apply", replicaPoll))
	}
	return &ended{state: want, trees: trees}, nil
}

// part is one layer's share in a ladder.
type part struct {
	name string
	ms   float64
}

// ladderLine records one ladder: the end-to-end median, the sum of the
// layers measured from outside, and the remainder nothing measured
// explains (with what is known to sit in it).
func (b *bench) ladderLine(what string, e2e float64, parts []part, remainderHolds string) {
	var sb strings.Builder
	var total float64
	fmt.Fprintf(&sb, "ladder %s/%s: e2e %.3f ms =", b.spec.name, what, e2e)
	for i, p := range parts {
		if i > 0 {
			sb.WriteString(" +")
		}
		fmt.Fprintf(&sb, " %s %.3f", p.name, p.ms)
		total += p.ms
	}
	rem := e2e - total
	fmt.Fprintf(&sb, " | Σ(layers) %.3f ms | remainder %.3f ms (%.1f%%: %s)", total, rem, 100*rem/e2e, remainderHolds)
	b.ladders = append(b.ladders, sb.String())
}

// routeSamples matches the traced calls in ops to their ServeHTTP spans
// on route and to the engine replay of the same inputs, and returns per
// call: the client latency, client self time (the call minus its server
// span), server busy time, and engine time.
func (b *bench) routeSamples(route string, ops []opRec, engine func(opRec) (time.Duration, bool)) (call, self, busy, eng []float64) {
	for _, o := range ops {
		s, ok := b.rec.serverSpan(o.trace, route)
		if !ok {
			continue
		}
		e, ok := engine(o)
		if !ok {
			continue
		}
		call = append(call, ms(o.lat))
		self = append(self, ms(o.lat-s.Dur))
		busy = append(busy, ms(s.Dur))
		eng = append(eng, ms(e))
	}
	return call, self, busy, eng
}

// routeLayers sets client self time, server busy time, and the server's
// time outside the engine for the traced calls in ops to route;
// remainderHolds says what the ladder's remainder is known to contain.
// Each prefix names one set of metrics (client.<prefix>.self_ms, ...);
// the ladder is named after the first.
func (b *bench) routeLayers(route string, ops []opRec, engine func(opRec) (time.Duration, bool), engineName, remainderHolds string, prefixes ...string) {
	call, self, busy, eng := b.routeSamples(route, ops, engine)
	rem := make([]float64, len(busy))
	for i := range busy {
		rem[i] = busy[i] - eng[i]
	}
	for _, prefix := range prefixes {
		b.layer["client."+prefix+".self_ms"] = median(self)
		b.layer["server."+prefix+".busy_ms"] = median(busy)
		b.layer["server."+prefix+".remainder_ms"] = median(rem)
	}
	b.ladderLine(fmt.Sprintf("%s(%s) n=%d", prefixes[0], route, len(call)), median(call), []part{
		{"client.self", median(self)},
		{engineName, median(eng)},
	}, remainderHolds)
}

// buildLayers times the traced calls to route that build a tree (set-up
// releases, bought releases, epoch seals) at the client and in ServeHTTP,
// and ladders them against the session-release replay, and that replay
// against its parts.
func (b *bench) buildLayers(route string, ops []opRec, engine func(opRec) (time.Duration, bool)) {
	call, self, busy, eng := b.routeSamples(route, ops, engine)
	b.layer["client.build.ms"] = median(call)
	b.layer["server.build.busy_ms"] = median(busy)
	b.ladderLine(fmt.Sprintf("build n=%d", len(call)), median(call), []part{
		{"client.self", median(self)},
		{"privtree.session_release", median(eng)},
	}, "route overhead: parse, admission, registry, render")
	b.ladderLine("session_release", median(b.samples["privtree.session_release.ms"]), []part{
		{fmt.Sprintf("store.fsync×%g", median(b.releaseFsyncs)), median(b.releaseFsyncMs)},
		{"privtree.build", median(b.samples["privtree.build.ms"])},
		{"privtree.envelope_encode", median(b.samples["privtree.envelope_encode.ms"])},
	}, "ledger, WAL framing and write, artifact write and rename")
}

// kernel answers rects by summing each tree's RangeCount in order, as the
// server does for a release (one tree) or the latest window (several).
func kernel(trees []*privtree.SpatialTree, rects []geom.Rect) []float64 {
	out := make([]float64, len(rects))
	for i, r := range rects {
		var s float64
		for _, t := range trees {
			s += t.RangeCount(r)
		}
		out[i] = s
	}
	return out
}

// kernelReplays times a serial replay of each distinct batch the traced
// query calls in ops were answered from (median of three), keyed like
// the calls.
func (b *bench) kernelReplays(ops []opRec, resolve func(key string) ([]*privtree.SpatialTree, []geom.Rect)) map[string]time.Duration {
	out := map[string]time.Duration{}
	var total time.Duration
	var queries int
	for _, o := range ops {
		if _, done := out[o.key]; done {
			continue
		}
		trees, rects := resolve(o.key)
		if len(trees) == 0 {
			continue
		}
		var ds []float64
		for i := 0; i < 3; i++ {
			d, _ := timed(func() error { kernel(trees, rects); return nil })
			ds = append(ds, float64(d))
		}
		d := time.Duration(median(ds))
		out[o.key] = d
		total += d
		queries += len(rects)
		b.rec.add(span{Trace: o.trace, Layer: "privtree", Name: "rangecount", Start: time.Now().Add(-d), Dur: d})
	}
	b.layer["privtree.rangecount.us_per_query"] = float64(total.Nanoseconds()) / 1e3 / float64(queries)
	return out
}

// spatialData wraps points as library data over the unit square.
func spatialData(pts [][]float64) (*privtree.Data, error) {
	ps := make([]privtree.Point, len(pts))
	for i, p := range pts {
		ps[i] = p
	}
	return privtree.NewSpatialData(unitSquare, ps)
}

// releaseReplays replays each ε through the library twice: Mechanism.Run
// plus Release.Envelope (build and encode alone), and Session.ReleaseContext
// on a scratch durable session (debit, build, envelope, commit), whose
// store reports every WAL fsync it makes. It returns the session-release
// time per ε.
func (b *bench) releaseReplays(data *privtree.Data, eps []float64) (map[float64]time.Duration, error) {
	dir, err := os.MkdirTemp(b.work, "session-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	budget := 1.0
	for _, e := range eps {
		budget += e
	}
	st, err := privtree.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var fsyncs []float64 // the current replay's, in ms
	st.SetFsyncObserver(func(seconds float64) {
		mu.Lock()
		fsyncs = append(fsyncs, seconds*1e3)
		mu.Unlock()
	})
	sess, err := privtree.NewSession(budget)
	if err == nil {
		err = sess.WithStore(st)
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	defer sess.Close()
	out := map[float64]time.Duration{}
	for _, e := range eps {
		if _, done := out[e]; done {
			continue
		}
		m, err := privtree.NewMechanism(string(privtree.KindSpatial), privtree.Params{})
		if err != nil {
			return nil, err
		}
		var rel *privtree.Release
		build, err := timed(func() (err error) { rel, err = m.Run(data, e); return err })
		if err != nil {
			return nil, err
		}
		encode, err := timed(func() error { _, err := rel.Envelope(); return err })
		if err != nil {
			return nil, err
		}
		mu.Lock()
		fsyncs = fsyncs[:0]
		mu.Unlock()
		d, err := timed(func() error { _, _, err := sess.ReleaseContext(context.Background(), m, data, e); return err })
		if err != nil {
			return nil, err
		}
		out[e] = d
		mu.Lock()
		for _, f := range fsyncs {
			b.sample("store.fsync_ms", f)
		}
		b.releaseFsyncs = append(b.releaseFsyncs, float64(len(fsyncs)))
		b.releaseFsyncMs = append(b.releaseFsyncMs, sum(fsyncs))
		mu.Unlock()
		b.sample("privtree.build.ms", ms(build))
		b.sample("privtree.envelope_encode.ms", ms(encode))
		b.sample("privtree.session_release.ms", ms(d))
		now := time.Now()
		b.rec.add(span{Layer: "privtree", Name: "build", Start: now.Add(-d - encode - build), Dur: build})
		b.rec.add(span{Layer: "privtree", Name: "envelope_encode", Start: now.Add(-d - encode), Dur: encode})
		b.rec.add(span{Layer: "privtree", Name: "session_release", Start: now.Add(-d), Dur: d})
	}
	return out, nil
}

// applyReplay times appending one ingest batch to a fresh stream buffer,
// the in-memory half of an unsealed ingest.
func applyReplay(pts [][]float64) (time.Duration, error) {
	st, err := privtree.NewSpatialStream(unitSquare)
	if err != nil {
		return 0, err
	}
	ps := make([]privtree.Point, len(pts))
	for i, p := range pts {
		ps[i] = p
	}
	return timed(func() error { return st.AppendPoints(ps) })
}

// storeProbe opens the stopped primary's store directly (the WAL fold,
// without decoding artifacts), sizes its files, and times loading the
// registration document into library data.
func (b *bench) storeProbe(dir string) {
	dsDir := filepath.Join(dir, "datasets", datasetName)
	storeDir := filepath.Join(dsDir, "store")
	var opens []float64
	for i := 0; i < 3; i++ {
		var st *privtree.Store
		d, err := timed(func() (err error) { st, err = privtree.OpenStore(storeDir); return err })
		if err != nil {
			b.t.fail("opening the store: %v", err)
			return
		}
		opens = append(opens, ms(d))
		if err := st.Close(); err != nil {
			b.t.fail("closing the store: %v", err)
		}
	}
	b.layer["store.open_ms"] = median(opens)
	if fi, err := os.Stat(filepath.Join(storeDir, "ledger.wal")); err == nil {
		b.layer["store.wal_bytes"] = float64(fi.Size())
	} else {
		b.t.fail("sizing the WAL: %v", err)
	}
	var artifacts int64
	entries, err := os.ReadDir(filepath.Join(storeDir, "artifacts"))
	if err != nil {
		b.t.fail("listing artifacts: %v", err)
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			artifacts += fi.Size()
		}
	}
	b.layer["store.artifact_bytes"] = float64(artifacts)
	for i := 0; i < 5; i++ {
		d, err := timed(func() error {
			raw, err := os.ReadFile(filepath.Join(dsDir, "dataset.json"))
			if err != nil {
				return err
			}
			var doc struct {
				Request struct {
					Points [][]float64 `json:"points"`
				} `json:"request"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				return err
			}
			if len(doc.Request.Points) > 0 {
				_, err = spatialData(doc.Request.Points)
			}
			return err
		})
		if err != nil {
			b.t.fail("loading the registration: %v", err)
			return
		}
		b.sample("privtree.data_load.ms", ms(d))
	}
}

// replProbe pulls the primary's WAL and every artifact the way a replica
// does, through the replication client.
func (b *bench) replProbe(base string, admin *caller, want *servedState) error {
	ctx := context.Background()
	rc := repl.NewClient(base, &http.Client{Timeout: 60 * time.Second})
	var shipped int
	var pull time.Duration
	from := uint64(0)
	for {
		var frames []byte
		var last uint64
		d, err := timed(func() (err error) {
			frames, _, last, err = rc.WALFrames(ctx, datasetName, from, 0, 0)
			return err
		})
		if err != nil {
			return fmt.Errorf("pulling the WAL: %w", err)
		}
		pull += d
		shipped += len(frames)
		if len(frames) == 0 || last <= from {
			break
		}
		from = last
	}
	b.layer["repl.wal_pull_ms"] = ms(pull)
	audit, err := admin.c.Audit(ctx, datasetName)
	if err != nil {
		return fmt.Errorf("reading the audit trail: %w", err)
	}
	seen := map[string]bool{}
	for _, e := range audit.Entries {
		if e.SHA256 == "" || seen[e.SHA256] {
			continue
		}
		seen[e.SHA256] = true
		var blob []byte
		d, err := timed(func() (err error) { blob, err = rc.Artifact(ctx, datasetName, e.SHA256); return err })
		if err != nil {
			return fmt.Errorf("fetching artifact %s: %w", e.SHA256, err)
		}
		b.sample("repl.artifact_fetch_ms", ms(d))
		shipped += len(blob)
	}
	b.t.check(len(seen) == len(want.ids), "audit names %d artifacts, %d releases served", len(seen), len(want.ids))
	b.layer["repl.bytes_shipped"] = float64(shipped)
	return nil
}

// finishLayers turns samples into medians and adds the runtime and
// tracing-overhead figures for the workload's op.
func (b *bench) finishLayers() {
	for name, xs := range b.samples {
		b.layer[name] = median(xs)
	}
	traced := b.t.selectOps(b.spec.op, true)
	untraced := b.t.selectOps(b.spec.op, false)
	b.layer["bench.trace_overhead_ratio"] = median(latencies(traced)) / median(latencies(untraced))
	b.layer["go.gc_cycles"] = float64(b.gcCycles)
	ops := 0
	for _, o := range b.t.ops {
		if o.traced && o.kind != "register" && !strings.HasPrefix(o.kind, "setup_") {
			ops++
		}
	}
	b.layer["go.alloc_bytes_per_op"] = float64(b.allocBytes) / float64(ops)
}

// exactCounts answers every pool batch exactly over pts.
func exactCounts(pts [][]float64, pool []queryBatch) [][]float64 {
	idx := gridIndex(pts)
	out := make([][]float64, len(pool))
	for i, qb := range pool {
		out[i] = make([]float64, len(qb.rects))
		for j, r := range qb.rects {
			out[i][j] = float64(idx.RangeCount(r))
		}
	}
	return out
}

func gridIndex(pts [][]float64) *dataset.GridIndex {
	ps := make([]geom.Point, len(pts))
	for i, p := range pts {
		ps[i] = p
	}
	s, err := dataset.NewSpatial(unitSquare, ps)
	if err != nil {
		panic(err) // generated points lie in the unit square by construction
	}
	return dataset.NewGridIndex(s, 128)
}

// relErrors is the paper's relative error of each answer, with smoothing
// delta (0.1% of the cardinality).
func relErrors(got, exact []float64, delta float64) []float64 {
	out := make([]float64, len(got))
	for i := range got {
		out[i] = workload.RelativeError(got[i], exact[i], delta)
	}
	return out
}

// windowLog keeps each distinct answer to the latest alias with the
// range of epochs whose window could have served it.
type windowLog struct {
	mu    sync.Mutex
	byKey map[string]*windowReply
	order []*windowReply
}

type windowReply struct {
	idx    int
	counts []float64
	lo, hi uint64 // candidate last epochs of the serving window
	epoch  uint64 // the window that matched, once resolved
}

func newWindowLog() *windowLog { return &windowLog{byKey: map[string]*windowReply{}} }

func (l *windowLog) observe(idx int, counts []float64, lo, hi uint64) string {
	buf := make([]byte, 8, 8+8*len(counts))
	binary.LittleEndian.PutUint64(buf, uint64(idx))
	for _, c := range counts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	key := string(buf)
	l.mu.Lock()
	defer l.mu.Unlock()
	if w, ok := l.byKey[key]; ok {
		w.lo, w.hi = min(w.lo, lo), max(w.hi, hi)
		return key
	}
	w := &windowReply{idx: idx, counts: append([]float64(nil), counts...), lo: lo, hi: hi}
	l.byKey[key] = w
	l.order = append(l.order, w)
	return key
}

func (l *windowLog) all() []*windowReply {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*windowReply(nil), l.order...)
}

func (l *windowLog) resolve(w *windowReply, epoch uint64) {
	l.mu.Lock()
	w.epoch = epoch
	l.mu.Unlock()
}

// keyOf returns the batch and resolved window of an observed answer.
func (l *windowLog) keyOf(key string) (int, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.byKey[key]
	if !ok {
		return 0, 0
	}
	return w.idx, w.epoch
}

// streamInput makes a run's stream batches again, for exact counts over
// a window and for replaying an epoch's release, so the run never holds
// the whole stream.
type streamInput struct {
	seed uint64
}

func (s streamInput) batch(k int) client.IngestRequest {
	return ingestBatch(s.seed, k, ingestPoints, sealEvery)
}

// epochPoints are the points sealed into epoch e (1-based).
func (s streamInput) epochPoints(e uint64) [][]float64 {
	var pts [][]float64
	for k := int(e-1) * sealEvery; k < int(e)*sealEvery; k++ {
		pts = append(pts, s.batch(k).Points...)
	}
	return pts
}

// windowIndex indexes the points of the window ending at epoch e and
// returns the window's cardinality.
func (s streamInput) windowIndex(e uint64) (*dataset.GridIndex, int) {
	var pts [][]float64
	for i := windowStart(e); i <= e; i++ {
		pts = append(pts, s.epochPoints(i)...)
	}
	return gridIndex(pts), len(pts)
}
