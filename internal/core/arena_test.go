package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// TestNodeIs24Bytes pins the arena node layout: regions live in the tree's
// coordinate array, so a node is its count, depth and child links only.
func TestNodeIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 24", got)
	}
}

// TestBuildArenasHaveNoSlack checks that every core constructor hands over
// node and coordinate arrays whose capacity equals their length, and that
// the coordinate array holds exactly 2·d floats per node.
func TestBuildArenasHaveNoSlack(t *testing.T) {
	ds := clusteredData(20000, 31)
	split := geom.FullBisect{Dim: 2}
	trees := map[string]*Tree{"exact": BuildExact(ds, split, 50, 0)}
	for _, workers := range []int{1, 8} {
		p := Params{Epsilon: 1, Fanout: 4, Workers: workers}
		tr, err := BuildNoisyParams(ds, split, p, 0.5, dp.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("noisy/workers=%d", workers)] = tr
	}
	for name, tr := range trees {
		if cap(tr.Nodes) != len(tr.Nodes) {
			t.Errorf("%s: node arena len %d cap %d", name, len(tr.Nodes), cap(tr.Nodes))
		}
		if c := tr.Coords(); cap(c) != len(c) || len(c) != 2*tr.Dims()*len(tr.Nodes) {
			t.Errorf("%s: coordinate array len %d cap %d for %d nodes of dim %d",
				name, len(c), cap(c), len(tr.Nodes), tr.Dims())
		}
	}
}

// cloneTree deep-copies a tree's arrays so a test can alter one copy.
func cloneTree(t *Tree) *Tree {
	c := *t
	c.Nodes = append([]Node(nil), t.Nodes...)
	c.coords = append([]float64(nil), t.coords...)
	return &c
}

func TestEqualComparesCoordinates(t *testing.T) {
	tr, err := BuildNoisy(clusteredData(5000, 32), geom.FullBisect{Dim: 2}, 1, 4, dp.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	same := cloneTree(tr)
	if !Equal(tr, same) {
		t.Fatal("a deep copy is not Equal to its original")
	}
	for _, k := range []int{0, len(tr.coords) / 2, len(tr.coords) - 1} {
		diff := cloneTree(tr)
		diff.coords[k] = math.Nextafter(diff.coords[k], math.Inf(1))
		if Equal(tr, diff) {
			t.Fatalf("Equal ignored a change to coordinate %d", k)
		}
	}
}

// refRangeCount is the Section 2.2 traversal written with the geom.Rect
// methods; the fused kernel must agree with it bit for bit.
func refRangeCount(n NodeRef, q geom.Rect) float64 {
	r := n.Region()
	iv := r.IntersectionVolume(q)
	if iv == 0 {
		return 0
	}
	if q.ContainsRect(r) {
		return n.Count()
	}
	if n.IsLeaf() {
		vol := r.Volume()
		if vol == 0 {
			return 0
		}
		return n.Count() * (iv / vol)
	}
	sum := 0.0
	for j := 0; j < n.NumChildren(); j++ {
		sum += refRangeCount(n.Child(j), q)
	}
	return sum
}

// uniformTree releases a PrivTree over n uniform points in [0,1)^d.
func uniformTree(t *testing.T, d, n int, seed uint64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			// Squaring skews the data so the tree is uneven.
			x := rng.Float64()
			p[k] = x * x
		}
		pts[i] = p
	}
	ds, err := dataset.NewSpatial(geom.UnitCube(d), pts)
	if err != nil {
		t.Fatal(err)
	}
	split := geom.FullBisect{Dim: d}
	tr, err := BuildNoisy(ds, split, 1, split.Fanout(), dp.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// nanTree builds a small 2-D tree by hand with a NaN in one child's
// bounds, which no decoder accepts but the kernel must still treat as the
// geom methods do.
func nanTree() *Tree {
	b := NewBuilder(2, 0)
	b.AddRoot(geom.UnitCube(2))
	first := b.AddChildren(0, []geom.Rect{
		{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 1}},
		{Lo: geom.Point{0.5, math.NaN()}, Hi: geom.Point{1, 1}},
	})
	b.SetCount(first, 10)
	b.SetCount(first+1, 7)
	tr := b.Build(true)
	tr.SumInternalCounts()
	return tr
}

// leafTree is a 2-D tree of one leaf with a negative count, where a query
// whose intersection volume underflows to 0 must answer +0, not -3·0.
func leafTree() *Tree {
	b := NewBuilder(4, 0)
	b.AddRoot(geom.UnitCube(2))
	b.SetCount(0, -3)
	return b.Build(true)
}

func rect(lo, hi []float64) geom.Rect { return geom.Rect{Lo: lo, Hi: hi} }

// kernelQueries returns the query families the kernel table test covers
// on a d-dimensional tree over [0,1)^d.
func kernelQueries(tr *Tree, d int, rng *rand.Rand) map[string][]geom.Rect {
	fill := func(v float64) []float64 {
		p := make([]float64, d)
		for k := range p {
			p[k] = v
		}
		return p
	}
	qs := map[string][]geom.Rect{}
	for i := 0; i < 300; i++ {
		lo, hi := make([]float64, d), make([]float64, d)
		for k := range lo {
			a, b := rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1
			lo[k], hi[k] = min(a, b), max(a, b)
		}
		qs["random"] = append(qs["random"], rect(lo, hi))
	}
	for i := 0; i < 20; i++ {
		lo, hi := fill(rng.Float64()), fill(0.9)
		hi[0] = lo[0] // zero width on one axis
		qs["empty"] = append(qs["empty"], rect(lo, hi))
	}
	for i := 0; i < 100; i++ {
		r := tr.Region(rng.IntN(tr.Size()))
		exact := r.Clone()
		qs["node-edges"] = append(qs["node-edges"], exact)
		// Abut the node on axis 0 from above: shares a face, no volume.
		above := r.Clone()
		above.Lo[0], above.Hi[0] = r.Hi[0], min(1, r.Hi[0]+0.1)
		// Straddle the node's lower face on every axis.
		straddle := r.Clone()
		for k := range straddle.Lo {
			straddle.Lo[k] = r.Lo[k] - 0.01
			straddle.Hi[k] = r.Lo[k] + (r.Hi[k]-r.Lo[k])/3
		}
		qs["node-edges"] = append(qs["node-edges"], above, straddle)
	}
	qs["outside"] = []geom.Rect{
		rect(fill(2), fill(3)),
		rect(fill(-3), fill(-1)),
		rect(fill(1), fill(2)),   // touches the domain's upper face
		rect(fill(-1), fill(0)),  // touches its lower face
		rect(fill(-1), fill(2)),  // contains the whole domain
		rect(fill(-1), fill(.5)), // partly outside
	}
	// Each axis overlaps, but for d ≥ 2 the product underflows to 0.
	qs["underflow"] = []geom.Rect{rect(fill(0), fill(1e-200))}
	nan := math.NaN()
	qLoNaN, qHiNaN := rect(fill(0.1), fill(0.6)), rect(fill(0.1), fill(0.6))
	qLoNaN.Lo[0], qHiNaN.Hi[d-1] = nan, nan
	qs["nan"] = []geom.Rect{qLoNaN, qHiNaN, rect(fill(nan), fill(nan))}
	qs["dim-mismatch"] = []geom.Rect{
		rect(fill(0)[:d-1], fill(1)[:d-1]),
		rect(append(fill(0), 0), append(fill(1), 1)),
	}
	return qs
}

func TestRangeCountMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		tree *Tree
	}{
		{"d=1", uniformTree(t, 1, 20000, 41)},
		{"d=2", uniformTree(t, 2, 20000, 42)},
		{"d=3", uniformTree(t, 3, 20000, 43)},
		{"nan-bounds", nanTree()},
		{"single-leaf", leafTree()},
	}
	for _, tc := range cases {
		d := tc.tree.Dims()
		rng := rand.New(rand.NewPCG(uint64(d), 9))
		for family, qs := range kernelQueries(tc.tree, d, rng) {
			for i, q := range qs {
				got, want := tc.tree.RangeCount(q), refRangeCount(tc.tree.Root(), q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s query %d %v: RangeCount %v (%#x), reference %v (%#x)",
						tc.name, family, i, q, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
