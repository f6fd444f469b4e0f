package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

func clusteredData(n int, seed uint64) *dataset.Spatial {
	rng := rand.New(rand.NewPCG(seed, 3))
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%10 == 0 {
			pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		} else {
			// Dense cluster near (0.2, 0.2).
			x := 0.2 + 0.02*rng.NormFloat64()
			y := 0.2 + 0.02*rng.NormFloat64()
			pts[i] = geom.Point{clamp01(x), clamp01(y)}
		}
	}
	ds, err := dataset.NewSpatial(geom.UnitCube(2), pts)
	if err != nil {
		panic(err)
	}
	return ds
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		return math.Nextafter(1, 0)
	}
	return x
}

func TestParamsValidateDefaults(t *testing.T) {
	p := Params{Epsilon: 1, Fanout: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Gamma-math.Log(4)) > 1e-12 {
		t.Errorf("default gamma = %v, want ln 4", p.Gamma)
	}
	if p.Sensitivity != 1 || p.MaxDepth != DefaultMaxDepth {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, Fanout: 4},
		{Epsilon: -1, Fanout: 4},
		{Epsilon: 1, Fanout: 1},
		{Epsilon: 1, Fanout: 4, Gamma: -2},
		{Epsilon: 1, Fanout: 4, Sensitivity: -1},
		{Epsilon: 1, Fanout: 4, MaxDepth: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestLambdaMatchesCorollary1(t *testing.T) {
	// With γ = ln β, λ = (2β−1)/(β−1)·1/ε.
	for _, beta := range []int{2, 4, 8, 16} {
		for _, eps := range []float64{0.05, 0.5, 1.6} {
			p := Params{Epsilon: eps, Fanout: beta}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			want := LambdaForEpsilon(beta, eps)
			if got := p.Lambda(); math.Abs(got-want)/want > 1e-12 {
				t.Errorf("β=%d ε=%v: λ=%v, corollary says %v", beta, eps, got, want)
			}
		}
	}
}

func TestDeltaIsGammaLambda(t *testing.T) {
	p := Params{Epsilon: 1, Fanout: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Delta()-p.Gamma*p.Lambda()) > 1e-12 {
		t.Fatal("delta != gamma·lambda")
	}
}

func TestRhoEqualsInverseLambdaBelowThreshold(t *testing.T) {
	// Equation (3): for x ≤ θ, ρ(x) = 1/λ exactly.
	const theta, lambda = 10.0, 2.0
	for _, x := range []float64{-5, 0, 5, 9, 10} {
		if got := Rho(x, theta, lambda); math.Abs(got-1/lambda) > 1e-9 {
			t.Errorf("ρ(%v) = %v, want %v", x, got, 1/lambda)
		}
	}
}

func TestRhoDecaysAboveThreshold(t *testing.T) {
	const theta, lambda = 0.0, 1.0
	prev := Rho(theta+1, theta, lambda)
	for x := theta + 2; x < theta+15; x++ {
		cur := Rho(x, theta, lambda)
		if cur >= prev {
			t.Fatalf("ρ not decreasing at x=%v: %v >= %v", x, cur, prev)
		}
		prev = cur
	}
	// Exponential decay: ρ(θ+10) should be tiny.
	if got := Rho(theta+10, theta, lambda); got > 2e-4 {
		t.Errorf("ρ(θ+10) = %v, expected exponential decay", got)
	}
}

func TestRhoUpperBoundsRho(t *testing.T) {
	// Lemma 3.1: ρ(x) ≤ ρ⊤(x) everywhere.
	f := func(xRaw float64, thetaSel, lambdaSel uint8) bool {
		theta := float64(thetaSel%20) - 5
		lambda := 0.2 + float64(lambdaSel%40)/8
		x := math.Mod(xRaw, 50)
		if x != x {
			x = 0
		}
		return Rho(x, theta, lambda) <= RhoUpper(x, theta, lambda)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRhoUpperTightAtThreshold(t *testing.T) {
	// ρ⊤ is within a small factor of ρ right above θ+1.
	const theta, lambda = 0.0, 1.5
	x := theta + 1.0
	r, ru := Rho(x, theta, lambda), RhoUpper(x, theta, lambda)
	if ru < r || ru > 3*r {
		t.Fatalf("bound too loose at θ+1: ρ=%v ρ⊤=%v", r, ru)
	}
}

func TestPrivacyCostBoundMatchesTheorem(t *testing.T) {
	// With δ = λ·ln β, the bound is (2β−1)/(β−1)·(1/λ).
	lambda := 3.0
	beta := 4.0
	delta := lambda * math.Log(beta)
	want := (2*beta - 1) / (beta - 1) / lambda
	if got := PrivacyCostBound(lambda, delta); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
}

func TestTheorem31PrivacyLossOnPaths(t *testing.T) {
	// Theorem 3.1, checked analytically: for ANY root-to-leaf path of
	// non-increasing counts (the nodes whose counts change when one point
	// is inserted), the exact log-ratio of split/non-split probabilities
	// between neighboring datasets stays within ±ε when λ is set per
	// Corollary 1.
	const beta = 4
	for _, eps := range []float64{0.1, 0.5, 2.0} {
		p := Params{Epsilon: eps, Fanout: beta}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecider(p, dp.NewRand(99))
		l := dp.NewLaplace(0, p.Lambda())
		pathLoss := func(counts []float64) float64 {
			loss := 0.0
			for i, c := range counts {
				b := dec.BiasedScore(c, i)
				bp := dec.BiasedScore(c-1, i)
				if i == len(counts)-1 {
					// The leaf does not split on either dataset.
					loss += math.Log(l.CDF(p.Theta-b) / l.CDF(p.Theta-bp))
				} else {
					loss += math.Log(l.Tail(p.Theta-b) / l.Tail(p.Theta-bp))
				}
			}
			return loss
		}
		rng := rand.New(rand.NewPCG(42, uint64(eps*1000)))
		for trial := 0; trial < 300; trial++ {
			depth := 1 + rng.IntN(40)
			counts := make([]float64, depth)
			c := float64(rng.IntN(1_000_000) + 1)
			for i := range counts {
				counts[i] = c
				// Counts shrink arbitrarily (including not at all).
				c = math.Floor(c * rng.Float64())
				if c < 1 {
					c = 1
				}
			}
			loss := pathLoss(counts)
			if loss > eps+1e-9 || loss < -eps-1e-9 {
				t.Fatalf("ε=%v path %v: privacy loss %v outside ±ε", eps, counts[:min(5, len(counts))], loss)
			}
		}
	}
}

func TestSplitProbabilityAtFloor(t *testing.T) {
	// Lemma 3.2 setup: Pr[Lap(λ) > λ·ln β] = 1/(2β).
	for _, beta := range []float64{2, 4, 16} {
		lambda := 1.7
		got := SplitProbabilityAtFloor(lambda, lambda*math.Log(beta))
		want := 1 / (2 * beta)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("β=%v: floor split prob %v, want %v", beta, got, want)
		}
	}
}

func TestDeciderBiasedScore(t *testing.T) {
	p := Params{Epsilon: 1, Fanout: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecider(p, dp.NewRand(1))
	delta := p.Delta()
	// Equation (8): b = max(θ−δ, c − depth·δ).
	if got := dec.BiasedScore(100, 0); got != 100 {
		t.Errorf("depth 0 biased score = %v, want 100", got)
	}
	if got := dec.BiasedScore(100, 3); math.Abs(got-(100-3*delta)) > 1e-12 {
		t.Errorf("depth 3 biased score = %v, want %v", got, 100-3*delta)
	}
	if got := dec.BiasedScore(0, 50); got != -delta {
		t.Errorf("floor = %v, want θ−δ = %v", got, -delta)
	}
}

func TestDeciderRespectsMaxDepth(t *testing.T) {
	p := Params{Epsilon: 10, Fanout: 4, MaxDepth: 5}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecider(p, dp.NewRand(2))
	for trial := 0; trial < 100; trial++ {
		if dec.ShouldSplit(1e9, 4) {
			t.Fatal("split allowed at MaxDepth-1")
		}
	}
}

func TestDeciderSplitsHugeCounts(t *testing.T) {
	p := Params{Epsilon: 1, Fanout: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecider(p, dp.NewRand(3))
	// A node with count far above depth·δ should essentially always split.
	for trial := 0; trial < 100; trial++ {
		if !dec.ShouldSplit(1e7, 3) {
			t.Fatal("huge count did not split")
		}
	}
}

func TestBuildProducesValidTree(t *testing.T) {
	ds := clusteredData(20000, 1)
	p := Params{Epsilon: 1.0, Fanout: 4}
	tree, err := Build(ds, geom.FullBisect{Dim: 2}, p, dp.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() < 5 {
		t.Fatalf("tree suspiciously small: %d nodes", tree.Size())
	}
	// Structural invariants: children tile parents, depths increment.
	var walk func(n NodeRef)
	walk = func(n NodeRef) {
		if n.IsLeaf() {
			return
		}
		if n.NumChildren() != 4 {
			t.Fatalf("fanout violated: %d children", n.NumChildren())
		}
		vol := 0.0
		for i := 0; i < n.NumChildren(); i++ {
			c := n.Child(i)
			if c.Depth() != n.Depth()+1 {
				t.Fatalf("depth not incremented")
			}
			if !n.Region().ContainsRect(c.Region()) {
				t.Fatalf("child escapes parent")
			}
			vol += c.Region().Volume()
			walk(c)
		}
		if math.Abs(vol-n.Region().Volume()) > 1e-9 {
			t.Fatalf("children do not tile parent")
		}
	}
	walk(tree.Root())
}

func TestBuildAdaptsToSkew(t *testing.T) {
	// The tree must be deeper inside the dense cluster than in sparse space.
	ds := clusteredData(50000, 2)
	p := Params{Epsilon: 1.0, Fanout: 4}
	tree, err := Build(ds, geom.FullBisect{Dim: 2}, p, dp.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	depthAt := func(x, y float64) int {
		n := tree.Root()
		for !n.IsLeaf() {
			for i := 0; i < n.NumChildren(); i++ {
				if c := n.Child(i); c.Region().Contains(geom.Point{x, y}) {
					n = c
					break
				}
			}
		}
		return n.Depth()
	}
	dense := depthAt(0.2, 0.2)
	sparse := depthAt(0.9, 0.9)
	if dense <= sparse {
		t.Fatalf("dense leaf depth %d not greater than sparse %d", dense, sparse)
	}
}

func TestBuildRemovesCounts(t *testing.T) {
	ds := clusteredData(1000, 3)
	p := Params{Epsilon: 1.0, Fanout: 4}
	tree, err := Build(ds, geom.FullBisect{Dim: 2}, p, dp.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if tree.HasCounts {
		t.Fatal("Build released counts")
	}
	for i := range tree.Nodes {
		if !math.IsNaN(tree.Nodes[i].Count) {
			t.Fatalf("node carries count %v; Algorithm 2 removes all counts", tree.Nodes[i].Count)
		}
	}
}

func TestBuildRejectsFanoutMismatch(t *testing.T) {
	ds := clusteredData(100, 4)
	p := Params{Epsilon: 1, Fanout: 8} // splitter below is fanout 4
	if _, err := Build(ds, geom.FullBisect{Dim: 2}, p, dp.NewRand(7)); err == nil {
		t.Fatal("fanout mismatch accepted")
	}
}

func TestBuildNoisyInternalCountsAreLeafSums(t *testing.T) {
	ds := clusteredData(20000, 5)
	tree, err := BuildNoisy(ds, geom.FullBisect{Dim: 2}, 1.0, 4, dp.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.HasCounts {
		t.Fatal("BuildNoisy did not release counts")
	}
	var walk func(n NodeRef) float64
	walk = func(n NodeRef) float64 {
		if n.IsLeaf() {
			return n.Count()
		}
		sum := 0.0
		for i := 0; i < n.NumChildren(); i++ {
			sum += walk(n.Child(i))
		}
		if math.Abs(sum-n.Count()) > 1e-6 {
			t.Fatalf("internal count %v != leaf sum %v", n.Count(), sum)
		}
		return sum
	}
	walk(tree.Root())
}

func TestBuildNoisyRootNearN(t *testing.T) {
	ds := clusteredData(50000, 6)
	tree, err := BuildNoisy(ds, geom.FullBisect{Dim: 2}, 1.0, 4, dp.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Root().Count()-50000) > 2000 {
		t.Fatalf("root noisy count %v too far from 50000", tree.Root().Count())
	}
}

func TestRangeCountAccuracyOnClusteredData(t *testing.T) {
	ds := clusteredData(50000, 7)
	tree, err := BuildNoisy(ds, geom.FullBisect{Dim: 2}, 1.0, 4, dp.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	idx := dataset.NewGridIndex(ds, 32)
	rng := rand.New(rand.NewPCG(11, 11))
	worst := 0.0
	for trial := 0; trial < 50; trial++ {
		lo := geom.Point{rng.Float64() * 0.7, rng.Float64() * 0.7}
		q := geom.NewRect(lo, geom.Point{lo[0] + 0.3, lo[1] + 0.3})
		exact := float64(idx.RangeCount(q))
		got := tree.RangeCount(q)
		re := math.Abs(got-exact) / math.Max(exact, 50)
		if re > worst {
			worst = re
		}
	}
	if worst > 0.6 {
		t.Fatalf("worst relative error %v too large at ε=1 on 9%%-volume queries", worst)
	}
}

func TestRangeCountFullDomain(t *testing.T) {
	ds := clusteredData(10000, 8)
	tree, err := BuildNoisy(ds, geom.FullBisect{Dim: 2}, 1.0, 4, dp.NewRand(12))
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.RangeCount(ds.Domain); math.Abs(got-tree.Root().Count()) > 1e-6 {
		t.Fatalf("full-domain query %v != root count %v", got, tree.Root().Count())
	}
}

func TestRangeCountPanicsWithoutCounts(t *testing.T) {
	ds := clusteredData(100, 9)
	p := Params{Epsilon: 1, Fanout: 4}
	tree, _ := Build(ds, geom.FullBisect{Dim: 2}, p, dp.NewRand(13))
	defer func() {
		if recover() == nil {
			t.Fatal("RangeCount without counts did not panic")
		}
	}()
	tree.RangeCount(ds.Domain)
}

func TestBuildNoisySplitValidation(t *testing.T) {
	ds := clusteredData(100, 10)
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		if _, err := BuildNoisySplit(ds, geom.FullBisect{Dim: 2}, 1, frac, 4, dp.NewRand(14)); err == nil {
			t.Errorf("treeFrac=%v accepted", frac)
		}
	}
}

func TestBuildExactSplitsAboveTheta(t *testing.T) {
	ds := clusteredData(10000, 11)
	tree := BuildExact(ds, geom.FullBisect{Dim: 2}, 100, 0)
	// Every leaf must have ≤ θ points OR be at max depth; every internal
	// node must have > θ points.
	var walk func(n NodeRef, view *dataset.View)
	walk = func(n NodeRef, view *dataset.View) {
		if n.IsLeaf() {
			if float64(view.Len()) > 100 && n.Depth() < DefaultMaxDepth-1 {
				t.Fatalf("leaf with %d > θ points at depth %d", view.Len(), n.Depth())
			}
			return
		}
		if view.Len() <= 100 {
			t.Fatalf("internal node with %d <= θ points", view.Len())
		}
		regions := make([]geom.Rect, n.NumChildren())
		for i := range regions {
			regions[i] = n.Child(i).Region()
		}
		views := view.Partition(regions)
		for i := range regions {
			walk(n.Child(i), views[i])
		}
	}
	walk(tree.Root(), ds.NewView())
}

func TestLemma32ExpectedTreeSize(t *testing.T) {
	// E[|T|] ≤ 2·|T*| when δ = λ·ln β and |T*| > 1. We average tree sizes
	// over repeated private builds at θ chosen so T* is nontrivial.
	ds := clusteredData(20000, 12)
	split := geom.FullBisect{Dim: 2}
	exact := BuildExact(ds, split, 0, 0) // θ=0 matches PrivTree's default
	star := exact.Size()
	if star <= 1 {
		t.Fatalf("T* degenerate: %d nodes", star)
	}
	rng := dp.NewRand(15)
	const reps = 30
	total := 0
	for r := 0; r < reps; r++ {
		p := Params{Epsilon: 1.0, Fanout: 4}
		tree, err := Build(ds, split, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		total += tree.Size()
	}
	avg := float64(total) / reps
	// Allow slack for Monte-Carlo noise on top of the factor-2 bound.
	if avg > 2.2*float64(star) {
		t.Fatalf("E[|T|] ≈ %v exceeds 2·|T*| = %v (Lemma 3.2)", avg, 2*star)
	}
}

func TestEmpiricalPrivacyLossWithinRhoUpper(t *testing.T) {
	// The realized split-decision privacy loss at any score must stay
	// under ρ⊤ of the biased score (plus Monte-Carlo slack).
	p := Params{Epsilon: 0.5, Fanout: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecider(p, dp.NewRand(16))
	lambda, delta := p.Lambda(), p.Delta()
	for _, score := range []float64{0, 5, 3 * delta, 10 * delta} {
		for _, depth := range []int{0, 2, 5} {
			loss := EmpiricalPrivacyLoss(dec, score, depth, 400000)
			b := dec.BiasedScore(score, depth)
			bound := RhoUpper(b, p.Theta, lambda)
			if loss > bound+0.02 {
				t.Errorf("score=%v depth=%d: loss %v > ρ⊤ %v", score, depth, loss, bound)
			}
		}
	}
}

func TestTreeAccessors(t *testing.T) {
	ds := clusteredData(5000, 13)
	tree, err := BuildNoisy(ds, geom.FullBisect{Dim: 2}, 1.0, 4, dp.NewRand(17))
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	internal := tree.Size() - len(leaves)
	// For a full fanout-4 tree: nodes = 4·internal + 1.
	if tree.Size() != 4*internal+1 {
		t.Fatalf("size %d, internal %d: not a full quadtree", tree.Size(), internal)
	}
	if tree.Height() < 1 {
		t.Fatal("height 0 on 5000 points")
	}
}
