package privtree

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// smallArtifact returns the binary artifact of a small released tree
// (a few dozen nodes), so the fuzz engine can mutate it at full speed.
func smallArtifact(t testing.TB) []byte {
	t.Helper()
	data, err := NewSpatialData(UnitCube(2), makeClusteredPoints(300))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.Run(data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := rel.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// reseal replaces an artifact's trailing CRC with the right one, so a
// hand-edited artifact reaches the checks behind the CRC.
func reseal(b []byte) []byte { return seal(b[:len(b)-4]) }

// craftHeader starts a one-dimensional binary artifact by hand: a header
// with no mechanism, fanout, dims = 1, the declared node count and the
// root region. Append arena records, then seal.
func craftHeader(fanout, nodes uint32, rootLo, rootHi float64) []byte {
	b := []byte(artifactMagic)
	b = binary.LittleEndian.AppendUint16(b, artifactVersion)
	b = append(append(b, byte(len(KindSpatial))), KindSpatial...)
	b = append(b, 0) // no mechanism
	b = append(b, make([]byte, 8+56)...)
	b = binary.LittleEndian.AppendUint32(b, fanout)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, nodes)
	return appendFloat(appendFloat(b, rootLo), rootHi)
}

// seal appends a valid CRC.
func seal(b []byte) []byte { return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)) }

// craftArtifact is craftHeader plus the given arena records, sealed.
func craftArtifact(fanout, nodes uint32, rootLo, rootHi float64, arena ...[]byte) []byte {
	b := craftHeader(fanout, nodes, rootLo, rootHi)
	for _, rec := range arena {
		b = append(b, rec...)
	}
	return seal(b)
}

// leafRec is a leaf record; internalRec an internal record whose children
// have the given one-dimensional [lo, hi) bounds, in pairs.
func leafRec(count float64) []byte { return appendFloat([]byte{tagLeaf}, count) }

func internalRec(bounds ...float64) []byte {
	b := []byte{tagInternal}
	for _, v := range bounds {
		b = appendFloat(b, v)
	}
	return b
}

// arenaOffset returns where a real artifact's arena section (fanout
// onwards) starts.
func arenaOffset(t testing.TB, bin []byte) int {
	t.Helper()
	h, err := readArtifactHeader(bin)
	if err != nil {
		t.Fatal(err)
	}
	return h.end
}

// mustReject decodes a hostile artifact and requires an error, no panic,
// and no allocation beyond a small constant (errors, header strings): no
// case may get as far as sizing an arena.
func mustReject(t *testing.T, bin []byte, wantErr string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	var err error
	allocs := testing.AllocsPerRun(1, func() { _, err = Decode(bin) })
	if err == nil {
		t.Fatal("hostile artifact accepted")
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("error %q does not mention %q", err, wantErr)
	}
	if allocs > 16 {
		t.Fatalf("rejecting made %.0f allocations", allocs)
	}
}

func TestBinaryArtifactTruncated(t *testing.T) {
	bin := smallArtifact(t)
	for cut := 0; cut < len(bin); cut++ {
		if _, err := Decode(bin[:cut]); err == nil {
			t.Fatalf("artifact truncated to %d of %d bytes accepted", cut, len(bin))
		}
	}
}

func TestBinaryArtifactHostile(t *testing.T) {
	valid := smallArtifact(t)
	arena := arenaOffset(t, valid)
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	oneLeaf := func(count float64) []byte { return craftArtifact(2, 1, 0, 1, leafRec(count)) }
	nan, inf := math.NaN(), math.Inf(1)

	cases := []struct {
		name, wantErr string
		bin           []byte
	}{
		{"flipped CRC", "CRC", edit(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })},
		{"flipped arena byte", "CRC", edit(func(b []byte) []byte { b[len(b)-20] ^= 0x40; return b })},
		{"node count beyond payload", "more than its", edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[arena+8:], math.MaxUint32)
			return reseal(b)
		})},
		{"node count above the real one", "declares", edit(func(b []byte) []byte {
			n := binary.LittleEndian.Uint32(b[arena+8:])
			binary.LittleEndian.PutUint32(b[arena+8:], n+1)
			return reseal(b)
		})},
		{"node count below the real one", "more than its declared", edit(func(b []byte) []byte {
			n := binary.LittleEndian.Uint32(b[arena+8:])
			binary.LittleEndian.PutUint32(b[arena+8:], n-1)
			return reseal(b)
		})},
		{"zero nodes", "declares no nodes", craftArtifact(2, 0, 0, 1, leafRec(1))},
		{"unknown tag", "unknown node tag 2", craftArtifact(2, 1, 0, 1, []byte{2}, make([]byte, 8))},
		{"trailing bytes", "trailing bytes", craftArtifact(2, 1, 0, 1, leafRec(1), []byte{0})},
		{"trailing record", "trailing bytes", craftArtifact(2, 1, 0, 1, leafRec(1), leafRec(2))},
		{"NaN root bound", "non-finite bound", craftArtifact(2, 1, nan, 1, leafRec(1))},
		{"infinite root bound", "non-finite bound", craftArtifact(2, 1, 0, inf, leafRec(1))},
		{"inverted root", "inverted interval", craftArtifact(2, 1, 1, 0, leafRec(1))},
		{"NaN child bound", "non-finite bound", craftArtifact(2, 3, 0, 1,
			internalRec(0, nan, 0.5, 1), leafRec(1), leafRec(2))},
		{"inverted child", "inverted interval", craftArtifact(2, 3, 0, 1,
			internalRec(0.5, 0.2, 0.5, 1), leafRec(1), leafRec(2))},
		{"child escapes parent", "escapes parent", craftArtifact(2, 3, 0, 1,
			internalRec(0, 0.5, 0.5, 1.5), leafRec(1), leafRec(2))},
		{"NaN leaf count", "non-finite leaf count", oneLeaf(nan)},
		{"infinite leaf count", "non-finite leaf count", oneLeaf(math.Inf(-1))},
		{"fanout one", "unusable fanout", craftArtifact(1, 1, 0, 1, leafRec(1))},
		{"fanout absurd", "unusable fanout", craftArtifact(1<<30, 1, 0, 1, leafRec(1))},
		{"missing children", "truncated", craftArtifact(2, 3, 0, 1, internalRec(0, 0.5, 0.5, 1), leafRec(1))},
		{"unknown version", "version", edit(func(b []byte) []byte { b[4] = 9; return reseal(b) })},
		{"unknown mechanism", "unknown mechanism", edit(func(b []byte) []byte {
			copy(b[6+1+len(KindSpatial)+1:], "spatiaX")
			return reseal(b)
		})},
		{"negative epsilon", "unusable epsilon", edit(func(b []byte) []byte {
			off := 6 + 1 + len(KindSpatial) + 1 + len("spatial")
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(-1))
			return reseal(b)
		})},
		{"non-finite param", "non-finite", func() []byte {
			b := craftArtifact(2, 1, 0, 1, leafRec(1))
			theta := 6 + 1 + len(KindSpatial) + 1 + 8 + 16 // no mechanism; Theta is the third param
			binary.LittleEndian.PutUint64(b[theta:], math.Float64bits(nan))
			return reseal(b)
		}()},
		{"params the mechanism rejects", "params", edit(func(b []byte) []byte {
			off := 6 + 1 + len(KindSpatial) + 1 + len("spatial") + 8
			binary.LittleEndian.PutUint64(b[off+24:], math.Float64bits(2)) // TreeBudgetFraction outside (0, 1)
			return reseal(b)
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mustReject(t, c.bin, c.wantErr) })
	}
}

// TestBinaryArtifactDeepChain: a chain 2^20 levels deep — each internal
// node's first child splits again, its second is a leaf — whose deepest
// leaf count is NaN. The first scan walks all of it without recursion and
// refuses it before any arena is allocated.
func TestBinaryArtifactDeepChain(t *testing.T) {
	const depth = 1 << 20
	nodes := uint32(2*depth + 1)
	rec, leaf := internalRec(0, 1, 0, 1), leafRec(1)
	b := craftHeader(2, nodes, 0, 1)
	b = append(make([]byte, 0, len(b)+depth*(len(rec)+len(leaf))+len(leaf)+4), b...)
	for i := 0; i < depth; i++ {
		b = append(b, rec...)
	}
	b = append(b, leafRec(math.NaN())...)
	for i := 0; i < depth; i++ {
		b = append(b, leaf...)
	}
	mustReject(t, seal(b), "non-finite leaf count")
}

// TestBinaryArtifactDeepChainValid: a well-formed chain far deeper than
// JSON's nesting limit decodes on the explicit stack and re-encodes to the
// same bytes.
func TestBinaryArtifactDeepChainValid(t *testing.T) {
	const depth = 50000
	var arena []byte
	for i := 0; i <= depth; i++ {
		if i < depth {
			arena = append(arena, internalRec(0, 1, 0, 1)...)
		} else {
			arena = append(arena, leafRec(1)...)
		}
	}
	for i := 0; i < depth; i++ {
		arena = append(arena, leafRec(2)...)
	}
	bin := craftArtifact(2, 2*depth+1, 0, 1, arena)
	rel, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := rel.Spatial()
	if tree.Height() != depth || tree.Total() != 1+2*depth {
		t.Fatalf("height %d total %v", tree.Height(), tree.Total())
	}
	again, err := rel.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, bin) {
		t.Fatal("re-encoding the chain changed its bytes")
	}
}

// FuzzDecodeBinary drives arbitrary bytes through Decode, each input both
// as given and with its trailing CRC recomputed, since mutations almost
// never keep the CRC valid and would otherwise stop at it. The contract:
// never panic, and any accepted artifact is canonical — it re-encodes to
// exactly the input bytes — and renders a JSON envelope that decodes to
// the same tree.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(smallArtifact(f))
	f.Add(craftArtifact(2, 1, 0, 1, leafRec(1)))
	f.Add(craftArtifact(2, 3, 0, 1, internalRec(0, 0.5, 0.5, 1), leafRec(1), leafRec(2)))
	f.Add(craftArtifact(2, 3, 0, 1, internalRec(0, 0.5, 0.5, 1.5), leafRec(1), leafRec(2)))
	f.Add([]byte(artifactMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, reseal(append([]byte(nil), data...)))
		}
		for _, in := range inputs {
			rel, err := Decode(in)
			if err != nil || !isBinaryArtifact(in) {
				continue
			}
			again, err := rel.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted artifact failed to re-encode: %v", err)
			}
			if !bytes.Equal(again, in) {
				t.Fatal("accepted artifact is not canonical: re-encoding changed its bytes")
			}
			env, err := rel.RenderEnvelope()
			if err != nil {
				t.Fatalf("accepted artifact failed to render JSON: %v", err)
			}
			fromJSON, err := Decode(env)
			if err != nil {
				t.Fatalf("rendered envelope rejected: %v", err)
			}
			a, _ := rel.Spatial()
			b, _ := fromJSON.Spatial()
			if a.Nodes() != b.Nodes() || a.Total() != b.Total() && !(math.IsNaN(a.Total()) && math.IsNaN(b.Total())) {
				t.Fatalf("JSON round trip changed the tree: %d/%v vs %d/%v", a.Nodes(), a.Total(), b.Nodes(), b.Total())
			}
		}
	})
}
