package core

import (
	"math"
	"strings"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// shapeOf encodes a tree's split structure as a string, which is the
// entire output of Algorithm 2 (counts are removed).
func shapeOf(t *Tree) string {
	var b strings.Builder
	var walk func(n NodeRef)
	walk = func(n NodeRef) {
		if n.IsLeaf() {
			b.WriteByte('0')
			return
		}
		b.WriteByte('1')
		for i := 0; i < n.NumChildren(); i++ {
			walk(n.Child(i))
		}
	}
	walk(t.Root())
	return b.String()
}

// TestEndToEndDifferentialPrivacy is the repository's strongest privacy
// check: it runs the FULL Build pipeline tens of thousands of times on a
// pair of neighboring datasets over a tiny domain, histograms the released
// tree shapes, and verifies that every sufficiently-frequent shape's
// empirical log-probability ratio stays within ε plus sampling slack. A
// bug in the bias, the clamp, or the noise scale (e.g. using h-free noise
// where h-scaled noise is required) reliably trips this test.
func TestEndToEndDifferentialPrivacy(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo DP check skipped in -short mode")
	}
	const eps = 1.0
	const trials = 60000

	dom := geom.UnitCube(1)
	mk := func(coords ...float64) *dataset.Spatial {
		pts := make([]geom.Point, len(coords))
		for i, c := range coords {
			pts[i] = geom.Point{c}
		}
		ds, err := dataset.NewSpatial(dom, pts)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	// D' = D + one point inside the dense cluster (the worst case for the
	// split chain: the inserted tuple deepens the path it belongs to).
	base := []float64{0.1, 0.11, 0.12, 0.13, 0.14, 0.8}
	d1 := mk(base...)
	d2 := mk(append(append([]float64(nil), base...), 0.105)...)

	split := geom.FullBisect{Dim: 1}
	p := Params{Epsilon: eps, Fanout: 2, MaxDepth: 5}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	sample := func(ds *dataset.Spatial, seed uint64) map[string]int {
		rng := dp.NewRand(seed)
		out := make(map[string]int)
		for i := 0; i < trials; i++ {
			tree, err := Build(ds, split, p, rng)
			if err != nil {
				t.Fatal(err)
			}
			out[shapeOf(tree)]++
		}
		return out
	}
	h1 := sample(d1, 1)
	h2 := sample(d2, 2)

	// Compare shapes frequent enough that the sampling error of the log
	// ratio is well under the budget: with ≥ 800 hits the per-histogram
	// relative error is ≲ 3.5σ·√(1/800) ≈ 0.12.
	const minCount = 800
	const slack = 0.3
	checked := 0
	for shape, c1 := range h1 {
		c2 := h2[shape]
		if c1 < minCount || c2 < minCount {
			continue
		}
		checked++
		ratio := math.Log(float64(c1) / float64(c2))
		if math.Abs(ratio) > eps+slack {
			t.Errorf("shape %q: empirical privacy loss %.3f exceeds ε=%v (+slack %v); counts %d vs %d",
				shape, ratio, eps, slack, c1, c2)
		}
	}
	if checked < 2 {
		t.Fatalf("only %d shapes frequent enough to test; tighten the domain", checked)
	}
}

// TestEndToEndDPCatchesBrokenMechanism sanity-checks the detector: with
// the bias DISABLED (a deliberately broken PrivTree that uses the raw
// count at every depth and a constant-λ noise), the same measurement must
// find a shape whose loss clearly exceeds what the biased mechanism is
// charged for — demonstrating the test has power, and that the paper's
// bias term is load-bearing.
func TestEndToEndDPCatchesBrokenMechanism(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo power check skipped in -short mode")
	}
	const trials = 60000
	dom := geom.UnitCube(1)
	mk := func(coords ...float64) *dataset.Spatial {
		pts := make([]geom.Point, len(coords))
		for i, c := range coords {
			pts[i] = geom.Point{c}
		}
		ds, err := dataset.NewSpatial(dom, pts)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	// The differing point lands in an otherwise EMPTY region: every node
	// on its path has count 0 vs 1, which straddles θ at every depth, so
	// an unbiased mechanism's split probabilities differ at every level
	// of the chain and the losses accumulate.
	base := []float64{0.1, 0.11, 0.12, 0.13}
	d1 := mk(base...)
	d2 := mk(append(append([]float64(nil), base...), 0.9)...)

	split := geom.FullBisect{Dim: 1}
	const lambda = 1.0 // constant noise with NO bias: the broken variant
	const maxDepth = 7

	// Aggregate by the depth of the leaf containing the differing point
	// (0.9): a deterministic post-processing of the released structure,
	// so any log-ratio it exhibits lower-bounds the mechanism's loss.
	rightDepth := func(t *Tree) int {
		n := t.Root()
		for !n.IsLeaf() {
			moved := false
			for i := 0; i < n.NumChildren(); i++ {
				if c := n.Child(i); c.Region().Contains(geom.Point{0.9}) {
					n = c
					moved = true
					break
				}
			}
			if !moved {
				break
			}
		}
		return n.Depth()
	}
	sampleBroken := func(ds *dataset.Spatial, seed uint64) map[int]int {
		rng := dp.NewRand(seed)
		out := make(map[int]int)
		for i := 0; i < trials; i++ {
			b := NewBuilder(2, 16)
			b.AddRoot(dom)
			var grow func(idx int32, view dataset.View)
			grow = func(idx int32, view dataset.View) {
				n := b.Node(idx)
				if int(n.Depth) >= maxDepth-1 {
					return
				}
				// Raw count + Lap(λ) > θ=0.5 — no depth bias, no clamp.
				if float64(view.Len())+dp.LapNoise(rng, lambda) <= 0.5 {
					return
				}
				regions := split.Split(b.Region(idx), int(n.Depth))
				views := view.PartitionInto(regions, make([]dataset.View, len(regions)))
				first := b.AddChildren(idx, regions)
				for ci := range regions {
					grow(first+int32(ci), views[ci])
				}
			}
			grow(0, *ds.NewView())
			out[rightDepth(b.Build(false))]++
		}
		return out
	}
	h1 := sampleBroken(d1, 3)
	h2 := sampleBroken(d2, 4)

	worst := 0.0
	for depth, c1 := range h1 {
		c2 := h2[depth]
		if c1 < 300 || c2 < 300 {
			continue
		}
		if r := math.Abs(math.Log(float64(c1) / float64(c2))); r > worst {
			worst = r
		}
	}
	// PrivTree at β=2, λ=1 would be charged ε = (2β−1)/((β−1)λ) = 3; the
	// broken mechanism must leak beyond a full-path cost > λ⁻¹·chain ≫ 1.
	if worst < 1.5 {
		t.Fatalf("broken mechanism leaked only %.3f; the detector has no power", worst)
	}
}
