package privtree

import (
	"fmt"
	"math"

	"privtree/internal/baseline"
	"privtree/internal/core"
	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// Point is a location in d-dimensional space.
type Point = geom.Point

// Rect is an axis-aligned box, closed at Lo and open at Hi per axis.
type Rect = geom.Rect

// NewRect builds a Rect spanning [lo[i], hi[i]) on each axis; it panics on
// mismatched dimensions or inverted intervals. Use it for literals; code
// handling untrusted input should use MakeRect.
func NewRect(lo, hi Point) Rect { return geom.NewRect(lo, hi) }

// MakeRect is the non-panicking counterpart of NewRect: mismatched or
// empty bound slices, non-finite coordinates, and inverted intervals are
// reported as errors, so untrusted input (HTTP bodies, CLI strings,
// serialized documents) can be turned into rectangles safely. Empty
// intervals (lo == hi) are accepted — query rectangles may be empty.
func MakeRect(lo, hi Point) (Rect, error) { return geom.MakeRect(lo, hi) }

// UnitCube returns the domain [0,1)^d.
func UnitCube(d int) Rect { return geom.UnitCube(d) }

// SpatialOptions tunes the spatial mechanism beyond the paper defaults.
type SpatialOptions struct {
	// Fanout is β; 0 means 2^d (the quadtree family the paper uses).
	Fanout int
	// Theta is the split threshold; the paper default is 0.
	Theta float64
	// TreeBudgetFraction is the share of ε spent on the decomposition
	// structure (the rest buys leaf counts); 0 means the paper's 1/2.
	TreeBudgetFraction float64
	// MaxDepth caps recursion as an engineering guard; 0 means 64.
	MaxDepth int
	// AffectedLeaves is x in the paper's third Section 3.5 extension: if
	// one individual can contribute points to up to x leaves (e.g. a
	// person with x check-ins), the noise scale is enlarged x-fold to
	// keep the release ε-DP at the individual level. 0 or 1 means the
	// standard one-point-per-individual setting.
	AffectedLeaves int
	// Seed makes the build reproducible; 0 picks a fixed default.
	Seed uint64
	// Workers bounds the goroutines used for tree construction: 0 means
	// GOMAXPROCS, 1 forces a serial build. Noise is drawn from per-node
	// splittable streams, so the released tree is identical for every
	// Workers setting — only the build time changes.
	Workers int
}

// SpatialTree is a released private decomposition with noisy counts.
type SpatialTree struct {
	tree *core.Tree
}

// BuildSpatial runs the full PrivTree pipeline of the paper's Section 3 on
// points over domain under total privacy budget eps: ε/2 builds the tree
// (Algorithm 2), ε/2 buys noisy leaf counts, and internal counts are leaf
// sums. Every point must lie inside domain.
//
// Invalid parameters — a non-positive or non-finite ε, a fanout below 2, a
// degenerate domain, a TreeBudgetFraction outside (0,1) — are rejected with
// an error, never a panic.
//
// BuildSpatial is a thin wrapper over the "spatial" registry mechanism:
// it runs the same validation and build implementation as NewSpatialData
// + NewSpatialMechanism + Run, skipping only the Data/Release boxing so
// the build stays allocation-lean. Use Session.Release to run the
// mechanism against a privacy-budget ledger.
func BuildSpatial(domain Rect, points []Point, eps float64, opts SpatialOptions) (*SpatialTree, error) {
	if err := domain.Validate(); err != nil {
		return nil, fmt.Errorf("privtree: invalid domain: %w", err)
	}
	data, err := dataset.NewSpatial(domain, points)
	if err != nil {
		return nil, err
	}
	p := Params{
		Seed:               opts.Seed,
		Fanout:             opts.Fanout,
		Theta:              opts.Theta,
		TreeBudgetFraction: opts.TreeBudgetFraction,
		MaxDepth:           opts.MaxDepth,
		AffectedLeaves:     opts.AffectedLeaves,
		Workers:            opts.Workers,
	}
	if err := validateSpatialParams(p); err != nil {
		return nil, fmt.Errorf("privtree: mechanism spatial: %w", err)
	}
	return buildSpatialTree(data, eps, p)
}

// buildSpatialTree is the spatial mechanism implementation shared by the
// registry and the BuildSpatial wrapper. data has been validated by
// NewSpatialData; p by validateSpatialParams.
func buildSpatialTree(data *dataset.Spatial, eps float64, p Params) (*SpatialTree, error) {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("privtree: epsilon must be positive and finite, got %v", eps)
	}
	domain := data.Domain
	d := domain.Dims()
	fanout := p.Fanout
	var split geom.Splitter
	switch {
	case fanout == 0 || fanout == 1<<d:
		fanout = 1 << d
		split = geom.FullBisect{Dim: d}
	default:
		// Accept 2^k fanouts below 2^d via round-robin splitting.
		k := 0
		for 1<<k < fanout {
			k++
		}
		if 1<<k != fanout || k < 1 || k > d {
			return nil, fmt.Errorf("privtree: fanout %d not realizable in %d dimensions (want a power of two ≤ 2^d)", fanout, d)
		}
		split = geom.RoundRobinBisect{Dim: d, PerStep: k}
	}
	frac := p.TreeBudgetFraction
	if frac == 0 {
		frac = 0.5
	}
	sens := 1.0
	if p.AffectedLeaves > 1 {
		sens = float64(p.AffectedLeaves)
	}
	rng := dp.NewRand(seedOrDefault(p.Seed))
	cp := core.Params{
		Epsilon:     eps * frac,
		Fanout:      fanout,
		Theta:       p.Theta,
		MaxDepth:    p.MaxDepth,
		Sensitivity: sens,
		Workers:     p.Workers,
	}
	// The count release scales identically: x leaves can each change by
	// one, so the leaf-count vector has L1 sensitivity x.
	t, err := core.BuildNoisyParams(data, split, cp, eps*(1-frac)/sens, rng)
	if err != nil {
		return nil, err
	}
	return &SpatialTree{tree: t}, nil
}

// RangeCount estimates the number of points inside q (the noisy traversal
// of Section 2.2, with the uniformity assumption at leaves).
func (t *SpatialTree) RangeCount(q Rect) float64 { return t.tree.RangeCount(q) }

// Total returns the tree's noisy estimate of the dataset cardinality.
func (t *SpatialTree) Total() float64 { return t.tree.Root().Count() }

// Domain returns the root region the tree decomposes. The rectangle aliases
// the tree's storage and must not be mutated.
func (t *SpatialTree) Domain() Rect { return t.tree.Root().Region() }

// Nodes returns the number of nodes in the decomposition.
func (t *SpatialTree) Nodes() int { return t.tree.Size() }

// Height returns the tree height (root = 0) — unconstrained by design,
// this is the paper's headline property.
func (t *SpatialTree) Height() int { return t.tree.Height() }

// Leaves returns the leaf regions with their released noisy counts. The
// regions are copies (sharing one fresh backing array), so the caller may
// modify them without touching the tree.
func (t *SpatialTree) Leaves() []LeafRegion {
	leaves := t.tree.Leaves()
	regions := geom.MakeRects(len(leaves), t.tree.Dims())
	out := make([]LeafRegion, len(leaves))
	for i, l := range leaves {
		r := l.Region()
		copy(regions[i].Lo, r.Lo)
		copy(regions[i].Hi, r.Hi)
		out[i] = LeafRegion{Region: regions[i], Count: l.Count(), Depth: l.Depth()}
	}
	return out
}

// LeafRegion is one released leaf: its region, noisy count, and depth.
type LeafRegion struct {
	Region Rect
	Count  float64
	Depth  int
}

// RequiredNoiseScale exposes Corollary 1: the minimum Laplace scale for a
// fanout-β PrivTree at budget ε.
func RequiredNoiseScale(beta int, eps float64) float64 {
	return core.LambdaForEpsilon(beta, eps)
}

// seedOrDefault maps seed 0 to a fixed constant so the zero-value options
// are still deterministic.
func seedOrDefault(seed uint64) uint64 {
	if seed == 0 {
		return 0x70726976 // "priv"
	}
	return seed
}

// Baseline identifies one of the paper's comparison methods.
type Baseline string

// The Figure 5 lineup (SimpleTree is the paper's Algorithm 1 strawman).
const (
	BaselineUG         Baseline = "ug"
	BaselineAG         Baseline = "ag"
	BaselineHierarchy  Baseline = "hierarchy"
	BaselinePrivelet   Baseline = "privelet"
	BaselineDAWA       Baseline = "dawa"
	BaselineSimpleTree Baseline = "simpletree"
)

// RangeCounter answers range-count queries; all baselines, SpatialTree,
// and spatial/baseline Releases satisfy it.
type RangeCounter interface {
	RangeCount(q Rect) float64
}

// BuildBaseline constructs one of the comparison methods on the same data
// under budget eps. AG and Hierarchy require 2-D data. SimpleTree uses the
// paper's Algorithm 1 with height 8.
//
// BuildBaseline is a thin wrapper over the "baseline/*" registry
// mechanisms (it shares their validation and build implementation); use
// NewBaselineMechanism with a Session for budget-accounted builds.
func BuildBaseline(b Baseline, domain Rect, points []Point, eps float64, seed uint64) (RangeCounter, error) {
	if _, ok := mechanismRegistry["baseline/"+string(b)]; !ok {
		return nil, fmt.Errorf("privtree: unknown baseline %q", b)
	}
	if err := domain.Validate(); err != nil {
		return nil, fmt.Errorf("privtree: invalid domain: %w", err)
	}
	data, err := dataset.NewSpatial(domain, points)
	if err != nil {
		return nil, err
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("privtree: epsilon must be positive and finite, got %v", eps)
	}
	return buildBaseline(b, data, eps, seed)
}

// buildBaseline is the baseline mechanism implementation shared by the
// registry and the BuildBaseline wrapper.
func buildBaseline(b Baseline, data *dataset.Spatial, eps float64, seed uint64) (RangeCounter, error) {
	domain := data.Domain
	rng := dp.NewRand(seedOrDefault(seed))
	switch b {
	case BaselineUG:
		return baseline.NewUG(data, eps, rng), nil
	case BaselineAG:
		if domain.Dims() != 2 {
			return nil, fmt.Errorf("privtree: AG requires 2-D data")
		}
		return baseline.NewAG(data, eps, rng), nil
	case BaselineHierarchy:
		if domain.Dims() != 2 {
			return nil, fmt.Errorf("privtree: Hierarchy requires 2-D data")
		}
		return baseline.NewHierarchy(data, eps, rng), nil
	case BaselinePrivelet:
		return baseline.NewPrivelet(data, eps, rng), nil
	case BaselineDAWA:
		return baseline.NewDAWA(data, eps, rng), nil
	case BaselineSimpleTree:
		d := domain.Dims()
		return baseline.NewSimpleTree(data, geom.FullBisect{Dim: d}, eps, 0, 8, rng), nil
	}
	return nil, fmt.Errorf("privtree: unknown baseline %q", b)
}
