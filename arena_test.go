package privtree

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"privtree/internal/core"
)

// TestReleaseArenasHaveNoSlack checks that trees from BuildSpatial (serial
// and parallel) and from both decoders hold node and coordinate arrays
// whose capacity equals their length.
func TestReleaseArenasHaveNoSlack(t *testing.T) {
	pts := makeClusteredPoints(20000)
	trees := map[string]*core.Tree{}
	for _, workers := range []int{1, 8} {
		st, err := BuildSpatial(UnitCube(2), pts, 1, SpatialOptions{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("BuildSpatial/workers=%d", workers)] = st.tree
	}
	rel := goldenReleases(t)["spatial"]
	env, err := rel.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := rel.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"Decode/json": env, "Decode/binary": bin} {
		r, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		trees[name] = r.spatial.tree
	}
	for name, tr := range trees {
		if cap(tr.Nodes) != len(tr.Nodes) {
			t.Errorf("%s: node arena len %d cap %d", name, len(tr.Nodes), cap(tr.Nodes))
		}
		if c := tr.Coords(); cap(c) != len(c) {
			t.Errorf("%s: coordinate array len %d cap %d", name, len(c), cap(c))
		}
	}
}

// TestLeavesDoNotAliasTree mutates every region Leaves returns and checks
// that the release answers, encodes and renders exactly as before.
func TestLeavesDoNotAliasTree(t *testing.T) {
	rel := goldenReleases(t)["spatial"]
	st, _ := rel.Spatial()
	q := NewRect(Point{0.1, 0.15}, Point{0.55, 0.7})
	count := st.RangeCount(q)
	env, err := rel.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := rel.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range st.Leaves() {
		for k := range leaf.Region.Lo {
			leaf.Region.Hi[k] = leaf.Region.Lo[k]
			leaf.Region.Lo[k] = -1
		}
	}
	if got := st.RangeCount(q); got != count {
		t.Fatalf("RangeCount moved from %v to %v after mutating Leaves' regions", count, got)
	}
	if got, err := rel.MarshalJSON(); err != nil || !bytes.Equal(got, env) {
		t.Fatalf("envelope changed after mutating Leaves' regions (err %v)", err)
	}
	if got, err := rel.MarshalBinary(); err != nil || !bytes.Equal(got, bin) {
		t.Fatalf("binary artifact changed after mutating Leaves' regions (err %v)", err)
	}
}

// TestUnmarshalSizesArenaFromParsedBounds feeds a tree whose root has
// 1,000 dimensions and 10,000 children without bounds. Sizing the
// coordinate array from the node count alone would allocate 160 MB from
// a 34 KB document; the decoder must refuse it having allocated little.
func TestUnmarshalSizesArenaFromParsedBounds(t *testing.T) {
	const dims, kids = 1000, 10000
	var doc bytes.Buffer
	fmt.Fprintf(&doc, `{"version":1,"fanout":%d,"root":{"lo":[0`, kids)
	doc.WriteString(strings.Repeat(",0", dims-1))
	doc.WriteString(`],"hi":[1`)
	doc.WriteString(strings.Repeat(",1", dims-1))
	doc.WriteString(`],"children":[{}`)
	doc.WriteString(strings.Repeat(",{}", kids-1))
	doc.WriteString(`]}}`)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var st SpatialTree
	err := st.UnmarshalJSON(doc.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a tree whose children carry no bounds decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Fatalf("decoding a %d-byte document allocated %d MB", doc.Len(), got>>20)
	}
}
