package privtree

import (
	"encoding/json"
	"fmt"
	"math"

	"privtree/internal/core"
	"privtree/internal/geom"
)

// This file serializes released artifacts. A serialized tree contains
// exactly what the mechanism released — regions and noisy counts — so the
// bytes carry the same ε-differential-privacy guarantee as the in-memory
// object and can be published or archived as-is.

// treeJSON is the wire form of a SpatialTree.
type treeJSON struct {
	Version int      `json:"version"`
	Fanout  int      `json:"fanout"`
	Root    nodeJSON `json:"root"`
}

type nodeJSON struct {
	Lo       []float64  `json:"lo"`
	Hi       []float64  `json:"hi"`
	Count    *float64   `json:"count,omitempty"` // leaves only; internal counts are reconstructed
	Children []nodeJSON `json:"children,omitempty"`
}

// MarshalJSON implements json.Marshaler for SpatialTree.
func (t *SpatialTree) MarshalJSON() ([]byte, error) {
	var conv func(n core.NodeRef) nodeJSON
	conv = func(n core.NodeRef) nodeJSON {
		region := n.Region()
		out := nodeJSON{Lo: region.Lo, Hi: region.Hi}
		if n.IsLeaf() {
			c := n.Count()
			out.Count = &c
			return out
		}
		out.Children = make([]nodeJSON, n.NumChildren())
		for i := range out.Children {
			out.Children[i] = conv(n.Child(i))
		}
		return out
	}
	return json.Marshal(treeJSON{Version: 1, Fanout: t.tree.Fanout, Root: conv(t.tree.Root())})
}

// size returns the number of nodes in the wire subtree rooted at w and
// the number of bound coordinates they carry.
func (w *nodeJSON) size() (nodes, coords int) {
	nodes, coords = 1, len(w.Lo)+len(w.Hi)
	for i := range w.Children {
		n, c := w.Children[i].size()
		nodes += n
		coords += c
	}
	return nodes, coords
}

// wireRect validates one serialized node's bounds and returns the region.
// It goes through geom.MakeRect, never geom.NewRect: inverted intervals,
// non-finite coordinates, mismatched or empty bound slices are all
// reported as errors, so no untrusted byte stream can crash the
// deserializer.
func wireRect(lo, hi []float64) (geom.Rect, error) {
	r, err := geom.MakeRect(lo, hi)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("privtree: malformed node bounds: %w", err)
	}
	return r, nil
}

// maxWireFanout bounds the fanout accepted from the wire; 2^20 is far
// beyond any realizable splitter and merely prevents absurd allocations.
const maxWireFanout = 1 << 20

// UnmarshalJSON implements json.Unmarshaler for SpatialTree: internal
// counts are reconstructed as leaf sums, exactly as the release pipeline
// defines them. Malformed input — truncated documents, inverted or
// non-finite bounds, children escaping their parent, wrong child arity,
// missing or non-finite leaf counts — is rejected with an error before any
// tree is exposed; t is left unmodified on failure.
func (t *SpatialTree) UnmarshalJSON(data []byte) error {
	var wire treeJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	if wire.Version != 1 {
		return fmt.Errorf("privtree: unsupported tree version %d", wire.Version)
	}
	if wire.Fanout < 2 || wire.Fanout > maxWireFanout {
		return fmt.Errorf("privtree: unusable fanout %d", wire.Fanout)
	}
	// Size the arena once from the parsed tree, but only when every node
	// carries the root's dimensionality: the coordinate array is then no
	// larger than the floats already parsed. Otherwise conv reports the
	// malformed node before the arena grows far.
	nodes, coords := wire.Root.size()
	if coords != 2*len(wire.Root.Lo)*nodes {
		nodes = 1
	}
	b := core.NewBuilder(wire.Fanout, nodes)
	var conv func(w nodeJSON, idx int32) error
	conv = func(w nodeJSON, idx int32) error {
		if len(w.Children) == 0 {
			if w.Count == nil {
				return fmt.Errorf("privtree: leaf without count")
			}
			if math.IsNaN(*w.Count) || math.IsInf(*w.Count, 0) {
				return fmt.Errorf("privtree: non-finite leaf count")
			}
			b.SetCount(idx, *w.Count)
			return nil
		}
		if len(w.Children) != wire.Fanout {
			return fmt.Errorf("privtree: node has %d children, fanout is %d", len(w.Children), wire.Fanout)
		}
		parentRegion := b.Region(idx)
		regions := make([]geom.Rect, len(w.Children))
		for i, cw := range w.Children {
			r, err := wireRect(cw.Lo, cw.Hi)
			if err != nil {
				return err
			}
			regions[i] = r
			if !parentRegion.ContainsRect(regions[i]) {
				return fmt.Errorf("privtree: child region escapes parent")
			}
		}
		first := b.AddChildren(idx, regions)
		for i, cw := range w.Children {
			if err := conv(cw, first+int32(i)); err != nil {
				return err
			}
		}
		return nil
	}
	rootRegion, err := wireRect(wire.Root.Lo, wire.Root.Hi)
	if err != nil {
		return err
	}
	b.AddRoot(rootRegion)
	if err := conv(wire.Root, 0); err != nil {
		return err
	}
	tree := b.Build(true)
	tree.SumInternalCounts()
	t.tree = tree
	return nil
}
