package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// Noise-stream tags: each tree node draws its split-decision noise and its
// count-release noise from the same path-derived dp.Stream under distinct
// tags, so the two draws are independent and neither depends on traversal
// order.
const (
	tagSplit = 1
	tagCount = 2
)

// parallelCutoff is the minimum number of points in a node's view before
// its child subtrees are worth fanning out to worker goroutines; below it
// the partition/expand work is cheaper than the handoff.
const parallelCutoff = 2048

// Build runs Algorithm 2 on the dataset: it releases the decomposition
// *structure* only (all point counts removed, as in line 11 of the
// algorithm), consuming p.Epsilon. Use BuildNoisy for the full pipeline
// with released counts.
//
// rng seeds a splittable per-node noise stream (one draw is taken from
// rng), so the result is a pure function of (data, p, seed) regardless of
// p.Workers: parallel and serial builds are identical.
func Build(data *dataset.Spatial, split geom.Splitter, p Params, rng *rand.Rand) (*Tree, error) {
	return build(data, split, p, 0, rng)
}

// build is the shared construction path; countScale > 0 additionally
// releases leaf counts at that Laplace scale and sums them bottom-up.
func build(data *dataset.Spatial, split geom.Splitter, p Params, countScale float64, rng *rand.Rand) (*Tree, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if split.Fanout() != p.Fanout {
		return nil, fmt.Errorf("core: splitter fanout %d disagrees with Params.Fanout %d", split.Fanout(), p.Fanout)
	}
	workers := p.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bc := &buildCtx{
		split:      split,
		dec:        NewDecider(p, nil),
		fanout:     p.Fanout,
		dims:       data.Dims(),
		countScale: countScale,
	}
	if workers > 1 {
		// Counting semaphore for extra subtree workers beyond this one.
		bc.sem = make(chan struct{}, workers-1)
	}
	b := NewBuilder(p.Fanout, 64)
	b.AddRoot(data.Domain)
	var scratch []levelScratch
	bc.expand(b, 0, *data.NewView(), dp.NewStream(rng.Uint64()), &scratch)
	t := b.Build(countScale > 0)
	if countScale > 0 {
		t.SumInternalCounts()
	}
	return t, nil
}

// levelScratch is the reusable per-recursion-level working set of expand:
// one rectangle buffer for SplitInto and one view buffer for
// PartitionInto. Allocated lazily, once per level, so a whole build costs
// O(height) scratch allocations rather than O(nodes).
type levelScratch struct {
	rects []geom.Rect
	views []dataset.View
}

// buildCtx carries the loop-invariant state of one tree construction.
type buildCtx struct {
	split      geom.Splitter
	dec        *Decider
	fanout     int
	dims       int
	countScale float64       // > 0: draw leaf counts inline
	sem        chan struct{} // non-nil: parallel fan-out permitted
}

func (c *buildCtx) level(scratch *[]levelScratch, depth int) *levelScratch {
	for len(*scratch) <= depth {
		*scratch = append(*scratch, levelScratch{})
	}
	ls := &(*scratch)[depth]
	if ls.rects == nil {
		ls.rects = geom.MakeRects(c.fanout, c.dims)
		ls.views = make([]dataset.View, c.fanout)
	}
	return ls
}

// expand grows the subtree rooted at node idx of b. The node's split
// decision, and (when counts are released) its leaf count, are drawn from
// stream; children recurse with stream.Child(i). When the semaphore has
// free slots and the view is large enough, child subtrees are built
// concurrently in per-subtree builders and spliced back in child order,
// which reproduces the serial arena layout exactly.
func (c *buildCtx) expand(b *Builder, idx int32, view dataset.View, stream dp.Stream, scratch *[]levelScratch) {
	depth := int(b.Node(idx).Depth)
	if !c.dec.ShouldSplitAt(float64(view.Len()), depth, stream) {
		if c.countScale > 0 {
			b.SetCount(idx, float64(view.Len())+stream.Laplace(tagCount, c.countScale))
		}
		return
	}
	region := b.Region(idx)
	ls := c.level(scratch, depth)
	regions := c.split.SplitInto(region, depth, ls.rects)
	ls.rects = regions
	views := view.PartitionInto(regions, ls.views)
	first := b.AddChildren(idx, regions)

	// Fan out only when the pool looks like it has a free slot; the check
	// is racy but purely a heuristic — both branches produce the identical
	// arena layout, so it affects wall-clock only, never the result. When
	// the pool is saturated, plain recursion below avoids the per-child
	// builder and splice-copy overhead.
	if c.sem != nil && view.Len() >= parallelCutoff && len(c.sem) < cap(c.sem) {
		// Every child subtree gets its own builder (even those expanded
		// inline on this goroutine), so splicing in child order recreates
		// the exact serial layout.
		subs := make([]*Builder, len(regions))
		var wg sync.WaitGroup
		for i := range regions {
			sub := b.Sub(first+int32(i), 64)
			subs[i] = sub
			childStream := stream.Child(i)
			childView := views[i]
			select {
			case c.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-c.sem }()
					var sc []levelScratch
					c.expand(sub, 0, childView, childStream, &sc)
				}()
			default:
				c.expand(sub, 0, childView, childStream, scratch)
			}
		}
		wg.Wait()
		for i := range subs {
			b.Splice(first+int32(i), subs[i])
		}
		return
	}

	for i := range regions {
		c.expand(b, first+int32(i), views[i], stream.Child(i), scratch)
	}
}

// BuildNoisy runs the full PrivTree pipeline of Section 3.4 under total
// budget eps: the tree structure is built with ε/2, then each leaf's point
// count is released with Laplace scale 2/ε (leaf counts have sensitivity 1
// because every point lies in exactly one leaf), and internal counts are
// reconstituted as sums of their leaves' noisy counts. By sequential
// composition (Lemma 2.1) the whole release is ε-DP.
func BuildNoisy(data *dataset.Spatial, split geom.Splitter, eps float64, fanout int, rng *rand.Rand) (*Tree, error) {
	return BuildNoisySplit(data, split, eps, 0.5, fanout, rng)
}

// BuildNoisySplit is BuildNoisy with an explicit budget split: treeFrac of
// eps goes to the structure, the rest to the leaf counts. It exists for the
// abl-split ablation; the paper's choice is treeFrac = 0.5.
func BuildNoisySplit(data *dataset.Spatial, split geom.Splitter, eps, treeFrac float64, fanout int, rng *rand.Rand) (*Tree, error) {
	if !(treeFrac > 0 && treeFrac < 1) {
		return nil, fmt.Errorf("core: treeFrac must be in (0,1), got %v", treeFrac)
	}
	budget := dp.NewBudget(eps)
	epsTree := eps * treeFrac
	epsCount := eps - epsTree
	budget.MustSpend(epsTree)
	budget.MustSpend(epsCount)

	p := Params{Epsilon: epsTree, Fanout: fanout}
	return build(data, split, p, 1/epsCount, rng)
}

// BuildNoisyParams is the fully parameterized pipeline: the tree is built
// with the given Params (θ, γ, MaxDepth and the tree budget all explicit),
// then leaf counts are attached at budget epsCount. The total privacy cost
// is p.Epsilon + epsCount. It exists for ablations; BuildNoisy is the
// paper-default entry point.
func BuildNoisyParams(data *dataset.Spatial, split geom.Splitter, p Params, epsCount float64, rng *rand.Rand) (*Tree, error) {
	if !(epsCount > 0) {
		return nil, fmt.Errorf("core: epsCount must be positive, got %v", epsCount)
	}
	return build(data, split, p, 1/epsCount, rng)
}

// RangeCount answers a range-count query with the top-down traversal of
// Section 2.2: fully contained nodes contribute their noisy count, leaves
// that partially intersect contribute count · |q∩dom|/|dom| (uniformity
// assumption), disjoint nodes are skipped. A query whose dimensionality
// differs from the tree's answers 0. It performs no heap allocation.
// It panics if the tree carries no counts.
func (t *Tree) RangeCount(q geom.Rect) float64 {
	if !t.HasCounts {
		panic("core: RangeCount on a tree without released counts")
	}
	d := t.dims
	if len(q.Lo) != d || len(q.Hi) < d {
		return 0
	}
	return t.rangeCountAt(0, q.Lo[:d:d], q.Hi[:d:d])
}

// rangeCountAt is RangeCount's traversal. One pass over node i's bounds,
// read straight from the coordinate array, yields both the intersection
// volume and whether the query contains the node. The products run over
// the axes in the same order, with the same builtin min/max, as
// geom.Rect.IntersectionVolume and Volume, so answers (NaN included) are
// bit-identical to a traversal written with those methods.
func (t *Tree) rangeCountAt(i int32, qlo, qhi []float64) float64 {
	d := len(qlo)
	o := 2 * d * int(i)
	lo := t.coords[o : o+d : o+d]
	hi := t.coords[o+d : o+2*d : o+2*d]
	iv := 1.0
	inside := true
	for k := range lo {
		l := max(lo[k], qlo[k])
		h := min(hi[k], qhi[k])
		if l >= h {
			return 0
		}
		iv *= h - l
		inside = inside && !(lo[k] < qlo[k] || hi[k] > qhi[k])
	}
	if iv == 0 {
		return 0
	}
	n := &t.Nodes[i]
	if inside {
		return n.Count
	}
	if n.numChildren == 0 {
		vol := 1.0
		for k := range lo {
			vol *= hi[k] - lo[k]
		}
		if vol == 0 {
			return 0
		}
		return n.Count * (iv / vol)
	}
	sum := 0.0
	for c := n.firstChild; c < n.firstChild+n.numChildren; c++ {
		sum += t.rangeCountAt(c, qlo, qhi)
	}
	return sum
}

// BuildExact runs Algorithm 2 with no noise and no bias (b̂(v) = c(v)),
// producing the tree T* of Lemma 3.2. It is used by the Lemma 3.2 property
// test and by utility diagnostics; it is NOT differentially private.
func BuildExact(data *dataset.Spatial, split geom.Splitter, theta float64, maxDepth int) *Tree {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	bc := &buildCtx{split: split, fanout: split.Fanout(), dims: data.Dims()}
	b := NewBuilder(bc.fanout, 64)
	b.AddRoot(data.Domain)
	var scratch []levelScratch
	var grow func(idx int32, view dataset.View)
	grow = func(idx int32, view dataset.View) {
		depth := int(b.Node(idx).Depth)
		if float64(view.Len()) <= theta || depth >= maxDepth-1 {
			return
		}
		region := b.Region(idx)
		ls := bc.level(&scratch, depth)
		regions := split.SplitInto(region, depth, ls.rects)
		ls.rects = regions
		views := view.PartitionInto(regions, ls.views)
		first := b.AddChildren(idx, regions)
		for i := range regions {
			grow(first+int32(i), views[i])
		}
	}
	grow(0, *data.NewView())
	return b.Build(false)
}
