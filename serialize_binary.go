package privtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"privtree/internal/core"
	"privtree/internal/geom"
)

// This file defines the binary arena artifact, the encoding stores commit
// and replicas ship for spatial releases. It carries exactly what the JSON
// envelope carries — provenance, regions and leaf counts — laid out like
// the node arena, so loading it is a bounds-checked scan plus one arena
// build instead of a JSON parse of every node. JSON stays the interop and
// debug encoding; Decode accepts both and tells them apart by the magic.
//
// Layout (integers and float64 bits little-endian):
//
//	magic      4        "\x89PTA"
//	version    2        artifactVersion
//	kind       1+k      length-prefixed ReleaseKind ("spatial")
//	mechanism  1+m      length-prefixed registry name ("" when not recorded;
//	                    registry names are short constants)
//	epsilon    8        the ε the release consumed
//	params     56       Params.Seed, Fanout, Theta, TreeBudgetFraction,
//	                    MaxDepth, AffectedLeaves, MaxLength, 8 bytes each
//	fanout     4
//	dims       4
//	nodes      4        node count
//	root       16·dims  root region: dims lo bounds, then dims hi bounds
//	arena               the nodes in preorder: a tag byte, then for an
//	                    internal node its fanout children's regions
//	                    (16·dims bytes each), for a leaf its count (8 bytes)
//	crc        4        CRC-32C (Castagnoli) of every preceding byte
//
// Adding a field to Params changes the params section and must bump
// artifactVersion.

const (
	artifactMagic   = "\x89PTA"
	artifactVersion = 1

	tagLeaf     = 0
	tagInternal = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// isBinaryArtifact reports whether data starts with the binary artifact's
// magic. The magic's first byte is not valid UTF-8, so no JSON document
// can carry it.
func isBinaryArtifact(data []byte) bool { return bytes.HasPrefix(data, []byte(artifactMagic)) }

// MarshalBinary implements encoding.BinaryMarshaler: the release as a
// binary arena artifact, the encoding a Session commits to its store and
// replicas ship. Decode loads it back into a release that renders the
// same JSON envelope byte for byte. Only spatial releases have a binary
// artifact; other kinds return an error and travel as their envelope.
func (r *Release) MarshalBinary() ([]byte, error) {
	if r.spatial == nil {
		return nil, fmt.Errorf("privtree: %s release has no binary artifact", r.kind)
	}
	t := r.spatial.tree
	dims := t.Dims()
	rect := 16 * dims
	internal := 0
	for i := range t.Nodes {
		if !t.Nodes[i].IsLeaf() {
			internal++
		}
	}
	leaves := len(t.Nodes) - internal
	size := len(artifactMagic) + 2 + 1 + len(r.kind) + 1 + len(r.mechanism) + 8 + 56 + 12 + rect +
		len(t.Nodes) + internal*t.Fanout*rect + leaves*8 + 4

	buf := make([]byte, 0, size)
	buf = append(buf, artifactMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, artifactVersion)
	buf = append(append(buf, byte(len(r.kind))), r.kind...)
	buf = append(append(buf, byte(len(r.mechanism))), r.mechanism...)
	buf = appendFloat(buf, r.epsilon)
	p := r.params
	buf = binary.LittleEndian.AppendUint64(buf, p.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Fanout))
	buf = appendFloat(buf, p.Theta)
	buf = appendFloat(buf, p.TreeBudgetFraction)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.MaxDepth))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.AffectedLeaves))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.MaxLength))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Fanout))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Nodes)))
	buf = appendRect(buf, t.Region(0))

	// Preorder over the arena's child links, on an explicit stack.
	stack := make([]core.NodeRef, 1, 64)
	stack[0] = t.Root()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.IsLeaf() {
			c := n.Count()
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("privtree: leaf %d has non-finite count %v", n.Index(), c)
			}
			buf = appendFloat(append(buf, tagLeaf), c)
			continue
		}
		buf = append(buf, tagInternal)
		for j := 0; j < n.NumChildren(); j++ {
			buf = appendRect(buf, n.Child(j).Region())
		}
		for j := n.NumChildren() - 1; j >= 0; j-- {
			stack = append(stack, n.Child(j))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendRect(buf []byte, r geom.Rect) []byte {
	for _, v := range r.Lo {
		buf = appendFloat(buf, v)
	}
	for _, v := range r.Hi {
		buf = appendFloat(buf, v)
	}
	return buf
}

func readFloat(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// artifactHeader is the provenance section of a binary artifact.
type artifactHeader struct {
	kind      ReleaseKind
	mechanism string
	epsilon   float64
	params    Params
	// end is the offset of the arena section (fanout onwards).
	end int
}

var errArtifactTruncated = fmt.Errorf("privtree: binary artifact is truncated")

// readArtifactHeader parses the magic, version and provenance of a binary
// artifact. It reads nothing past them: InspectEnvelope uses it alone.
func readArtifactHeader(data []byte) (*artifactHeader, error) {
	off := len(artifactMagic)
	if len(data) < off+2 {
		return nil, errArtifactTruncated
	}
	if v := binary.LittleEndian.Uint16(data[off:]); v != artifactVersion {
		return nil, fmt.Errorf("privtree: unsupported binary artifact version %d", v)
	}
	off += 2
	readString := func() (string, bool) {
		if off >= len(data) || len(data)-off-1 < int(data[off]) {
			return "", false
		}
		n := int(data[off])
		s := string(data[off+1 : off+1+n])
		off += 1 + n
		return s, true
	}
	kind, ok := readString()
	if !ok {
		return nil, errArtifactTruncated
	}
	mechanism, ok := readString()
	if !ok || len(data)-off < 8+56 {
		return nil, errArtifactTruncated
	}
	h := &artifactHeader{kind: ReleaseKind(kind), mechanism: mechanism, epsilon: readFloat(data[off:])}
	off += 8
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(data[off+8*i:]) }
	h.params = Params{
		Seed:               u(0),
		Fanout:             int(int64(u(1))),
		Theta:              math.Float64frombits(u(2)),
		TreeBudgetFraction: math.Float64frombits(u(3)),
		MaxDepth:           int(int64(u(4))),
		AffectedLeaves:     int(int64(u(5))),
		MaxLength:          int(int64(u(6))),
	}
	h.end = off + 56
	return h, nil
}

// decodeBinary loads a binary arena artifact. It checks the CRC, applies
// Decode's provenance checks to the header, and builds the tree with
// decodeArena, which checks everything SpatialTree.UnmarshalJSON checks
// plus the declared node count.
func decodeBinary(data []byte) (*Release, error) {
	h, err := readArtifactHeader(data)
	if err != nil {
		return nil, err
	}
	if len(data) < h.end+4 {
		return nil, errArtifactTruncated
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("privtree: binary artifact fails its CRC")
	}
	if err := checkProvenance(h.kind, h.mechanism, h.epsilon, &h.params); err != nil {
		return nil, err
	}
	// The envelope's params are JSON, which has no NaN or infinity; a
	// header JSON could not carry would make a release that cannot render.
	for _, v := range []float64{h.params.Theta, h.params.TreeBudgetFraction} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("privtree: binary artifact params hold non-finite %v", v)
		}
	}
	if h.kind != KindSpatial {
		return nil, fmt.Errorf("privtree: binary artifact carries %q, but only spatial releases have one", h.kind)
	}
	tree, err := decodeArena(body[h.end:])
	if err != nil {
		return nil, err
	}
	return &Release{kind: h.kind, mechanism: h.mechanism, epsilon: h.epsilon, params: h.params,
		spatial: &SpatialTree{tree: tree}}, nil
}

// decodeArena builds the tree an arena section describes. A first scan
// checks everything that needs no tree — tags, lengths, finite and
// non-inverted bounds, finite leaf counts, the declared node count, no
// trailing bytes — and allocates nothing, so a hostile artifact of any
// depth is refused before an arena exists. The second pass builds the
// arena through core.Builder, sized from the checked node count, checks
// that each child region lies inside its parent, and walks an explicit
// stack instead of recursing.
func decodeArena(sec []byte) (*core.Tree, error) {
	if len(sec) < 12 {
		return nil, errArtifactTruncated
	}
	fanout := int(binary.LittleEndian.Uint32(sec))
	dims := int(binary.LittleEndian.Uint32(sec[4:]))
	nodes := int(binary.LittleEndian.Uint32(sec[8:]))
	sec = sec[12:]
	if fanout < 2 || fanout > maxWireFanout {
		return nil, fmt.Errorf("privtree: unusable fanout %d", fanout)
	}
	if dims < 1 {
		return nil, fmt.Errorf("privtree: malformed node bounds: need at least one dimension")
	}
	if dims > len(sec)/16 {
		return nil, errArtifactTruncated
	}
	rect := 16 * dims
	root, arena := sec[:rect], sec[rect:]
	// Every node costs a tag byte, and every node but the root a region in
	// its parent's record: a count the section cannot hold is refused
	// before the builder is sized from it.
	if nodes < 1 {
		return nil, fmt.Errorf("privtree: binary artifact declares no nodes")
	}
	if nodes > (len(arena)+rect)/(1+rect) {
		return nil, fmt.Errorf("privtree: binary artifact declares %d nodes, more than its %d arena bytes can hold", nodes, len(arena))
	}
	if err := checkRegion(root, dims); err != nil {
		return nil, err
	}
	internal, err := scanArena(arena, fanout, dims, nodes)
	if err != nil {
		return nil, err
	}

	// The scan proved the layout, so the build reads without bounds checks
	// of its own. Scratch holds one node's children (or just the root, for
	// a single-leaf tree: fanout·dims is only bounded by the input when an
	// internal record exists).
	scratch := 1
	if internal > 0 {
		scratch = fanout
	}
	regions := geom.MakeRects(scratch, dims)
	b := core.NewBuilder(fanout, nodes)
	b.AddRoot(readRect(root, regions[0]))
	stack := make([]int32, 1, 64)
	off := 0
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tag := arena[off]
		off++
		if tag == tagLeaf {
			b.SetCount(idx, readFloat(arena[off:]))
			off += 8
			continue
		}
		parent := b.Region(idx)
		for i := range regions {
			readRect(arena[off:off+rect], regions[i])
			off += rect
			if !parent.ContainsRect(regions[i]) {
				return nil, fmt.Errorf("privtree: child region escapes parent")
			}
		}
		first := b.AddChildren(idx, regions)
		for i := int32(fanout) - 1; i >= 0; i-- {
			stack = append(stack, first+i)
		}
	}
	tree := b.Build(true)
	tree.SumInternalCounts()
	return tree, nil
}

// scanArena walks the preorder node records without building anything:
// pending counts the nodes announced (the root, then each internal
// node's children) but not yet read, so a well-formed arena ends exactly
// when pending reaches zero. It returns the number of internal nodes.
func scanArena(arena []byte, fanout, dims, nodes int) (int, error) {
	rect := 16 * dims
	pending, seen, internal, off := 1, 0, 0, 0
	for pending > 0 {
		if off >= len(arena) {
			return 0, errArtifactTruncated
		}
		tag := arena[off]
		off++
		pending--
		seen++
		switch tag {
		case tagLeaf:
			if len(arena)-off < 8 {
				return 0, errArtifactTruncated
			}
			if c := readFloat(arena[off:]); math.IsNaN(c) || math.IsInf(c, 0) {
				return 0, fmt.Errorf("privtree: non-finite leaf count")
			}
			off += 8
		case tagInternal:
			if seen+pending+fanout > nodes {
				return 0, fmt.Errorf("privtree: binary artifact holds more than its declared %d nodes", nodes)
			}
			if len(arena)-off < fanout*rect {
				return 0, errArtifactTruncated
			}
			for i := 0; i < fanout; i++ {
				if err := checkRegion(arena[off:off+rect], dims); err != nil {
					return 0, err
				}
				off += rect
			}
			pending += fanout
			internal++
		default:
			return 0, fmt.Errorf("privtree: unknown node tag %d", tag)
		}
	}
	if off != len(arena) {
		return 0, fmt.Errorf("privtree: %d trailing bytes after the arena", len(arena)-off)
	}
	if seen != nodes {
		return 0, fmt.Errorf("privtree: binary artifact declares %d nodes but holds %d", nodes, seen)
	}
	return internal, nil
}

// checkRegion applies geom.CheckBounds to an encoded region without
// decoding it into slices: every bound finite, no interval inverted.
func checkRegion(b []byte, dims int) error {
	for k := 0; k < dims; k++ {
		lo, hi := readFloat(b[8*k:]), readFloat(b[8*(dims+k):])
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return fmt.Errorf("privtree: malformed node bounds: non-finite bound on axis %d: [%v, %v)", k, lo, hi)
		}
		if lo > hi {
			return fmt.Errorf("privtree: malformed node bounds: inverted interval on axis %d: [%v, %v)", k, lo, hi)
		}
	}
	return nil
}

// readRect decodes an encoded region into dst's slices and returns dst.
func readRect(b []byte, dst geom.Rect) geom.Rect {
	dims := len(dst.Lo)
	for k := 0; k < dims; k++ {
		dst.Lo[k] = readFloat(b[8*k:])
		dst.Hi[k] = readFloat(b[8*(dims+k):])
	}
	return dst
}
