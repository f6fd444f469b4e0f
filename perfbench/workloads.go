package main

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/geom"
	"privtree/internal/server"
)

// workloadSpec is one traffic mix (BENCHMARK.json records why each was
// chosen). op names the call the client.op.* metrics time; tail is the
// quantile client.op.tail_ms reports, with at least ten of a run's
// samples beyond it.
type workloadSpec struct {
	name string
	op   string
	tail float64
	run  func(b *bench) error
}

var workloads = []workloadSpec{
	{name: "query-large", op: "query", tail: 0.9, run: runQueryLarge},        // ~300 batches a run
	{name: "release-churn", op: "release", tail: 0.75, run: runReleaseChurn}, // ~44 releases a run
	{name: "stream-ingest", op: "ingest", tail: 0.75, run: runStreamIngest},  // ~1000 batches a run
}

// Traffic shape. Each value is either worked out from a cost measured on
// the reference machine (2 vCPUs; figures are medians from traced runs of
// this benchmark, see layers.json) or is an assumption about the
// deployment that no measurement backs. layers.json lists every value
// with the same tag.
const (
	// spatialN is the size of the spatial dataset. Assumption: large and
	// skewed enough that the tree is deep (about 12k nodes, height 17).
	spatialN = 100_000
	// largeBatch is the query-large batch size. Measured: at 10k queries
	// the server's time outside the kernel is about 3% of the call, so
	// per-request overhead is negligible.
	largeBatch = 10_000
	// smallBatch is the size of the reads that run beside writes.
	// Assumption: an interactive analyst's batch.
	smallBatch = 32
	// smallPool is how many distinct small batches the readers cycle
	// through. Assumption: enough queries (4096) that the accuracy figure
	// does not hinge on a few boxes.
	smallPool = 128
	// readerThink is the pause of the small-batch readers between a reply
	// and their next call: about four times the small-batch p50 (0.5 ms),
	// so a reader and its handler keep about a fifth of one CPU. Measured:
	// over eight interleaved pairs of stream-ingest runs, the ingest p75
	// moved between runs by 0.27 of its median (IQR) with a 1 ms pause and
	// by 0.075 with 2 ms. Without a pause the readers keep both CPUs busy,
	// and the writer's calls time the wait for a CPU, not the write path.
	readerThink = 2 * time.Millisecond
	// releasesPerSecond paces release-churn's buyer (one caller, so a call
	// is sent when due or when the previous one returns, whichever is
	// later). Measured: the 200 ms interval is 3.4 times the uncached
	// release p50 (58 ms), so a release up to three times slower still
	// returns before the next is due. Every run then commits the same
	// number of releases, give or take the last, and the store's size,
	// memory, restart and catch-up compare like with like.
	releasesPerSecond = 5
	// ingestPoints is the size of one ingest batch. Assumption: a small
	// batch (a body of about 4 KB). Measured: at this size the request
	// path and the journal fsync, not the points, take most of the call
	// (the stream append is under 1% of it).
	ingestPoints = 100
	// ingestPerSecond paces stream-ingest's writer. Measured: the 10 ms
	// interval exceeds the seal p50 (8.8 ms), so a seal seldom delays the
	// next batch, and is 17 times the unsealed ingest p50 (0.6 ms), so the
	// writer is busy under a tenth of the time.
	ingestPerSecond = 100
	// sealEvery makes an epoch of sealEvery×ingestPoints = 10k points, one
	// seal a second. Assumption.
	sealEvery = 100
	// window is the number of epochs latest sums: 80k points when full,
	// the order of the other workloads' 100k. Assumption ("several").
	window = 8
	// epochEpsilon is the budget each sealed epoch spends. Assumption.
	epochEpsilon = 0.5
)

func unitRect() *client.Rect { return &client.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}} }

// setupSpatial starts a primary in dir, registers pts and buys one
// release of ε = eps: the set-up a spatial workload times.
func (b *bench) setupSpatial(dir string, pts [][]float64, budget, eps float64) (*node, *client.ReleaseResult, error) {
	n, err := startNode(server.Options{DataDir: dir}, b.rec)
	if err != nil {
		return nil, nil, err
	}
	cl := b.newCaller(n.url)
	defer cl.close()
	ctx := context.Background()
	var reg *client.RegisterResult
	lat, err := timed(func() (err error) {
		reg, err = cl.c.Register(ctx, client.RegisterRequest{
			Name: datasetName, Kind: "spatial", Epsilon: budget, Domain: unitRect(), Points: pts,
		})
		return err
	})
	b.t.op(opRec{kind: "register", lat: lat, trace: cl.trace(), traced: b.recording()}, err)
	if err != nil {
		_ = n.stop()
		return nil, nil, err
	}
	b.t.check(reg.N == len(pts), "registered %d points, sent %d", reg.N, len(pts))
	var rel *client.ReleaseResult
	lat, err = timed(func() (err error) {
		rel, err = cl.c.CreateRelease(ctx, datasetName, client.ReleaseParams{Epsilon: eps})
		return err
	})
	b.t.op(opRec{kind: "setup_release", lat: lat, trace: cl.trace(), traced: b.recording(), eps: eps}, err)
	if err != nil {
		_ = n.stop()
		return nil, nil, err
	}
	b.t.check(!rel.Cached && rel.EpsilonSpent == eps, "first release: cached=%v spent=%v", rel.Cached, rel.EpsilonSpent)
	return n, rel, nil
}

// runQueryLarge: two closed-loop analysts send 10k-query batches to one
// release over 100k clustered points.
func runQueryLarge(b *bench) error {
	pts := points(b.seed, spatialN)
	pool := queryPool(b.seed, 4, largeBatch)
	var relID string
	n, dir, err := b.setupRepeated(func(dir string) (*node, error) {
		n, rel, err := b.setupSpatial(dir, pts, 10, 1)
		if err == nil {
			relID = rel.ID
		}
		return n, err
	})
	if err != nil {
		return err
	}
	replies := newReplyLog(&b.t)
	b.timedPhase(func(ctx context.Context) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			cl := b.newCaller(n.url)
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				defer cl.close()
				b.queryLoop(ctx, cl, pool, first, 0,
					func() (string, uint64) { return relID, 0 },
					func(idx int, res *client.QueryResult, _ uint64) string {
						return replies.observe(res.ReleaseID, idx, res.Counts)
					})
			}(i)
		}
		wg.Wait()
	})
	b.opStats()
	b.queriesPerSecond()

	end, err := b.endPhase(n, dir)
	if err != nil {
		return err
	}
	trees := end.trees
	b.checkReplies(replies, trees, pool, pts)

	if b.traced() {
		data, err := spatialData(pts)
		if err != nil {
			return err
		}
		kern := b.kernelReplays(b.t.selectOps("query", true), func(key string) ([]*privtree.SpatialTree, []geom.Rect) {
			id, idx := splitKey(key)
			return []*privtree.SpatialTree{trees[id]}, pool[idx].rects
		})
		// One release is served; three nearby ε give the replays samples.
		sess, err := b.releaseReplays(data, []float64{1, churnEpsilon(1), churnEpsilon(2)})
		if err != nil {
			return err
		}
		b.routeLayers("query", b.t.selectOps("query", true),
			func(o opRec) (time.Duration, bool) { d, ok := kern[o.key]; return d, ok },
			"privtree.rangecount", queryRemainder, "op", "query")
		b.buildLayers("create_release", b.t.selectOps("setup_release", true),
			func(o opRec) (time.Duration, bool) { d, ok := sess[o.eps]; return d, ok })
	}
	return nil
}

// runReleaseChurn: one analyst buys releases on a fixed schedule, every
// eighth request a repeat that must come back cached at no cost; another
// reads the newest release in small closed-loop batches, pausing
// readerThink between them.
func runReleaseChurn(b *bench) error {
	pts := points(b.seed, spatialN)
	pool := queryPool(b.seed, smallPool, smallBatch)
	interval := time.Second / releasesPerSecond
	schedule := releaseSchedule(b.seed, int(b.seconds/interval)+1)
	var firstID string
	n, dir, err := b.setupRepeated(func(dir string) (*node, error) {
		n, rel, err := b.setupSpatial(dir, pts, 1000, 1)
		if err == nil {
			firstID = rel.ID
		}
		return n, err
	})
	if err != nil {
		return err
	}
	var newest atomic.Value
	newest.Store(firstID)
	spent := 1.0
	replies := newReplyLog(&b.t)
	b.timedPhase(func(ctx context.Context) {
		rc, qc := b.newCaller(n.url), b.newCaller(n.url)
		defer rc.close()
		defer qc.close()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			seen := map[float64]bool{}
			start := time.Now()
			for k, eps := range schedule {
				due := start.Add(time.Duration(k) * interval)
				if !sleepUntil(ctx, due) {
					return
				}
				tracing := b.recording()
				late := time.Since(due)
				var res *client.ReleaseResult
				lat, err := timed(func() (err error) {
					res, err = rc.c.CreateRelease(context.Background(), datasetName, client.ReleaseParams{Epsilon: eps})
					return err
				})
				o := opRec{kind: "release", lat: lat, late: late, trace: rc.trace(), traced: tracing, eps: eps}
				if seen[eps] {
					o.kind = "release_cached"
				}
				if err == nil {
					if seen[eps] {
						b.t.check(res.Cached && res.EpsilonSpent == spent, "repeat of ε=%v: cached=%v spent %v, want %v",
							eps, res.Cached, res.EpsilonSpent, spent)
					} else {
						spent += eps
						b.t.check(!res.Cached && res.EpsilonSpent == spent, "release ε=%v: cached=%v spent %v, want %v",
							eps, res.Cached, res.EpsilonSpent, spent)
						newest.Store(res.ID)
					}
				}
				seen[eps] = true
				b.t.op(o, err)
			}
		}()
		go func() {
			defer wg.Done()
			b.queryLoop(ctx, qc, pool, 0, readerThink,
				func() (string, uint64) { return newest.Load().(string), 0 },
				func(idx int, res *client.QueryResult, _ uint64) string {
					return replies.observe(res.ReleaseID, idx, res.Counts)
				})
		}()
		wg.Wait()
	})
	b.opStats()
	b.queriesPerSecond()

	end, err := b.endPhase(n, dir)
	if err != nil {
		return err
	}
	b.t.check(end.state.info.EpsilonSpent == spent, "spent ε %v, want the sum of uncached debits %v",
		end.state.info.EpsilonSpent, spent)
	b.checkReplies(replies, end.trees, pool, pts)

	if b.traced() {
		data, err := spatialData(pts)
		if err != nil {
			return err
		}
		releases := b.t.selectOps("release", true)
		var eps []float64
		for _, o := range releases {
			eps = append(eps, o.eps)
		}
		sess, err := b.releaseReplays(data, eps)
		if err != nil {
			return err
		}
		kern := b.kernelReplays(b.t.selectOps("query", true), func(key string) ([]*privtree.SpatialTree, []geom.Rect) {
			id, idx := splitKey(key)
			return []*privtree.SpatialTree{end.trees[id]}, pool[idx].rects
		})
		releaseEngine := func(o opRec) (time.Duration, bool) { d, ok := sess[o.eps]; return d, ok }
		b.routeLayers("create_release", releases, releaseEngine, "privtree.session_release",
			"route overhead: parse, admission, registry, render, obs", "op")
		b.routeLayers("query", b.t.selectOps("query", true),
			func(o opRec) (time.Duration, bool) { d, ok := kern[o.key]; return d, ok }, "privtree.rangecount", queryRemainder, "query")
		b.buildLayers("create_release", releases, releaseEngine)
	}
	return nil
}

// runStreamIngest: one analyst feeds a streaming dataset small batches on
// a fixed schedule, every sealEvery-th sealing an epoch; another reads the
// latest window in small closed-loop batches, pausing readerThink between
// them.
func runStreamIngest(b *bench) error {
	interval := time.Second / ingestPerSecond
	stream := streamInput{seed: b.seed}
	pool := queryPool(b.seed, smallPool, smallBatch)
	sent, applied := 0, 0
	epochRelease := map[uint64]string{}
	ingest := func(cl *caller, k int, req client.IngestRequest, due time.Time) (opRec, *client.IngestResult, error) {
		tracing := b.recording()
		late := time.Since(due)
		var res *client.IngestResult
		lat, err := timed(func() (err error) {
			res, err = cl.c.Ingest(context.Background(), datasetName, req)
			return err
		})
		o := opRec{kind: "ingest", lat: lat, late: late, trace: cl.trace(), traced: tracing, batch: k}
		if req.Seal {
			o.kind = "seal"
		}
		if err != nil {
			return o, nil, err
		}
		sent += len(req.Points)
		applied += res.Applied
		b.t.check(res.Applied == len(req.Points) && !res.Duplicate && res.SealError == "" && res.Sealed == req.Seal,
			"batch %d: applied %d of %d, duplicate=%v, sealed=%v, seal error %q",
			k+1, res.Applied, len(req.Points), res.Duplicate, res.Sealed, res.SealError)
		if res.Sealed {
			epochRelease[res.Epoch] = res.ReleaseID
			b.t.check(res.EpsilonSpent == float64(res.Epoch)*epochEpsilon, "epoch %d: spent ε %v, want %v",
				res.Epoch, res.EpsilonSpent, float64(res.Epoch)*epochEpsilon)
			o.epoch = res.Epoch
		}
		return o, res, nil
	}

	n, dir, err := b.setupRepeated(func(dir string) (*node, error) {
		n, err := startNode(server.Options{DataDir: dir}, b.rec)
		if err != nil {
			return nil, err
		}
		cl := b.newCaller(n.url)
		defer cl.close()
		ctx := context.Background()
		lat, err := timed(func() error {
			_, err := cl.c.Register(ctx, client.RegisterRequest{
				Name: datasetName, Kind: "spatial", Epsilon: 1000, Domain: unitRect(),
				Stream: &client.StreamSpec{EpochEpsilon: epochEpsilon, Window: window},
			})
			return err
		})
		b.t.op(opRec{kind: "register", lat: lat, trace: cl.trace(), traced: b.recording()}, err)
		if err != nil {
			_ = n.stop()
			return nil, err
		}
		sent, applied = 0, 0
		epochRelease = map[uint64]string{}
		for k := 0; k < sealEvery; k++ {
			o, _, err := ingest(cl, k, stream.batch(k), time.Now())
			o.kind = "setup_" + o.kind
			b.t.op(o, err)
			if err != nil {
				_ = n.stop()
				return nil, err
			}
		}
		return n, nil
	})
	if err != nil {
		return err
	}

	var lastEpoch atomic.Uint64
	lastEpoch.Store(1)
	windows := newWindowLog()
	b.timedPhase(func(ctx context.Context) {
		ic, qc := b.newCaller(n.url), b.newCaller(n.url)
		defer ic.close()
		defer qc.close()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			start := time.Now()
			for k := sealEvery; ; k++ {
				req := stream.batch(k)
				due := start.Add(time.Duration(k-sealEvery) * interval)
				if !sleepUntil(ctx, due) {
					return
				}
				o, res, err := ingest(ic, k, req, due)
				if err == nil && res.Sealed {
					lastEpoch.Store(res.Epoch)
				}
				b.t.op(o, err)
			}
		}()
		go func() {
			defer wg.Done()
			b.queryLoop(ctx, qc, pool, 0, readerThink,
				func() (string, uint64) { return "latest", lastEpoch.Load() },
				func(idx int, res *client.QueryResult, before uint64) string {
					return windows.observe(idx, res.Counts, before, lastEpoch.Load()+1)
				})
		}()
		wg.Wait()
	})
	b.opStats()
	b.queriesPerSecond()

	end, err := b.endPhase(n, dir)
	if err != nil {
		return err
	}
	info := end.state.info
	b.t.check(applied == sent, "applied %d rows, sent %d", applied, sent)
	sealed := uint64(len(epochRelease))
	b.t.check(info.EpsilonSpent == float64(sealed)*epochEpsilon, "spent ε %v, want epochs × ε_epoch = %v",
		info.EpsilonSpent, float64(sealed)*epochEpsilon)
	b.t.check(info.Stream != nil && info.Stream.LastEpoch == sealed &&
		info.Stream.Pending == sent-int(sealed)*sealEvery*ingestPoints,
		"stream state %+v after %d seals and %d rows", info.Stream, sealed, sent)

	// Every distinct answer must equal the replay over one of the windows
	// that could have served it; the matching window also gives the exact
	// counts for the accuracy figure.
	epochTree := func(e uint64) *privtree.SpatialTree { return end.trees[epochRelease[e]] }
	windowTrees := func(e uint64) []*privtree.SpatialTree {
		var ts []*privtree.SpatialTree
		for i := windowStart(e); i <= e; i++ {
			ts = append(ts, epochTree(i))
		}
		return ts
	}
	byWindow := map[uint64][]*windowReply{}
	for _, w := range windows.all() {
		matched := uint64(0)
		for e := max(w.lo, 1); e <= min(w.hi, sealed); e++ {
			if sameBits(w.counts, kernel(windowTrees(e), pool[w.idx].rects)) {
				matched = e
				break
			}
		}
		if !b.t.check(matched != 0, "latest batch %d: answer matches no window in epochs %d..%d", w.idx, w.lo, w.hi) {
			continue
		}
		windows.resolve(w, matched)
		byWindow[matched] = append(byWindow[matched], w)
	}
	// One window's index at a time, so memory stays that of one window.
	var errs []float64
	for e := uint64(1); e <= sealed; e++ {
		ws := byWindow[e]
		if len(ws) == 0 {
			continue
		}
		idx, n := stream.windowIndex(e)
		for _, w := range ws {
			counts := make([]float64, len(w.counts))
			for j, r := range pool[w.idx].rects {
				counts[j] = float64(idx.RangeCount(r))
			}
			errs = append(errs, relErrors(w.counts, counts, 0.001*float64(n))...)
		}
	}
	b.e2e["avg_rel_error"] = mean(errs)

	if b.traced() {
		seals := append(b.t.selectOps("seal", true), b.t.selectOps("setup_seal", true)...)
		sessTimes := map[uint64]time.Duration{}
		for _, o := range seals {
			data, err := spatialData(stream.epochPoints(o.epoch))
			if err != nil {
				return err
			}
			d, err := b.releaseReplays(data, []float64{epochEpsilon})
			if err != nil {
				return err
			}
			sessTimes[o.epoch] = d[epochEpsilon]
		}
		kern := b.kernelReplays(b.t.selectOps("query", true), func(key string) ([]*privtree.SpatialTree, []geom.Rect) {
			idx, e := windows.keyOf(key)
			return windowTrees(e), pool[idx].rects
		})
		b.routeLayers("ingest", b.t.selectOps("ingest", true), func(o opRec) (time.Duration, bool) {
			d, err := applyReplay(stream.batch(o.batch).Points)
			return d, err == nil
		}, "privtree.stream_append",
			"read, parse, validation, admission, ingest-journal write and fsync, render, obs", "op")
		b.routeLayers("query", b.t.selectOps("query", true),
			func(o opRec) (time.Duration, bool) { d, ok := kern[o.key]; return d, ok }, "privtree.window_rangecount", queryRemainder, "query")
		b.buildLayers("ingest", seals, func(o opRec) (time.Duration, bool) { d, ok := sessTimes[o.epoch]; return d, ok })
	}
	return nil
}

// checkReplies checks every first answer in replies bit for bit against
// the replay on the decoded release that served it, and sets
// avg_rel_error from those answers against exact counts over pts.
func (b *bench) checkReplies(replies *replyLog, trees map[string]*privtree.SpatialTree, pool []queryBatch, pts [][]float64) {
	exact := exactCounts(pts, pool)
	var errs []float64
	for _, key := range sortedKeys(replies.first) {
		id, idx := splitKey(key)
		got := replies.first[key]
		tree, ok := trees[id]
		if !b.t.check(ok, "query answered by unknown release %s", id) {
			continue
		}
		b.t.check(sameBits(got, kernel([]*privtree.SpatialTree{tree}, pool[idx].rects)),
			"release %s batch %d: served counts differ from the replay", id, idx)
		errs = append(errs, relErrors(got, exact[idx], 0.001*float64(len(pts)))...)
	}
	b.e2e["avg_rel_error"] = mean(errs)
}

// queryRemainder is what a query ladder's remainder is known to contain.
const queryRemainder = "server time outside the kernel: read, parse, admission, render, obs"

// windowStart is the oldest epoch in the window ending at e.
func windowStart(e uint64) uint64 {
	if e < window {
		return 1
	}
	return e - window + 1
}

// splitKey undoes replyKey.
func splitKey(key string) (string, int) {
	i := strings.LastIndexByte(key, '|')
	idx, _ := strconv.Atoi(key[i+1:])
	return key[:i], idx
}
