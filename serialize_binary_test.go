package privtree

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"privtree/internal/core"
)

// TestGoldenBinaryArtifact pins the binary artifact format to a checked-in
// fixture built from the same release as testdata/spatial_envelope.json:
// encoding must reproduce it byte for byte, it must decode to the tree
// the golden JSON decodes to, and the decoded release must render the
// golden JSON envelope exactly.
//
// Regenerate (only when intentionally revving the format) with:
//
//	PRIVTREE_UPDATE_GOLDEN=1 go test -run TestGoldenBinaryArtifact .
func TestGoldenBinaryArtifact(t *testing.T) {
	path := filepath.Join("testdata", "spatial_artifact.bin")
	bin, err := goldenReleases(t)["spatial"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("PRIVTREE_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, bin, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with PRIVTREE_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(bin, want) {
		t.Fatalf("%s: binary encoding drifted from the checked-in golden bytes", path)
	}

	goldenJSON, err := os.ReadFile(filepath.Join("testdata", "spatial_envelope.json"))
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON = bytes.TrimSuffix(goldenJSON, []byte("\n"))
	fromBin, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Decode(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Equal(fromBin.spatial.tree, fromJSON.spatial.tree) {
		t.Fatal("binary and JSON golden artifacts decode to different trees")
	}
	if fromBin.Fingerprint() != fromJSON.Fingerprint() {
		t.Fatalf("provenance differs: %q vs %q", fromBin.Fingerprint(), fromJSON.Fingerprint())
	}
	env, err := fromBin.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env, goldenJSON) {
		t.Fatal("envelope rendered from the binary artifact differs from the golden JSON")
	}
}

// TestBinaryArtifactRoundTrip: a built release and the release decoded
// from its artifact render identical envelopes and re-encode to identical
// bytes, and the artifact is well under the JSON's size.
func TestBinaryArtifactRoundTrip(t *testing.T) {
	data, err := NewSpatialData(UnitCube(2), makeClusteredPoints(20000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 5, Theta: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.Run(data, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := rel.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	env, err := rel.RenderEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if 5*len(bin) > 3*len(env) {
		t.Fatalf("binary artifact %d bytes, JSON %d: expected under 60%%", len(bin), len(env))
	}
	dec, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	again, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, bin) {
		t.Fatal("re-encoding a decoded artifact changed its bytes")
	}
	decEnv, err := dec.RenderEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decEnv, env) {
		t.Fatal("decoded release renders a different envelope")
	}
	if dec.Kind() != KindSpatial || dec.Mechanism() != "spatial" || dec.Epsilon() != 0.8 || dec.Params() != rel.Params() {
		t.Fatalf("provenance lost: %v %q %v %+v", dec.Kind(), dec.Mechanism(), dec.Epsilon(), dec.Params())
	}
	// RenderEnvelope keeps nothing: the release still has no cached copy.
	if dec.wire.Load() != nil {
		t.Fatal("RenderEnvelope cached the envelope")
	}
}

// TestBinaryArtifactOtherKinds: only spatial releases have a binary
// artifact.
func TestBinaryArtifactOtherKinds(t *testing.T) {
	for name, rel := range goldenReleases(t) {
		if name == "spatial" {
			continue
		}
		if _, err := rel.MarshalBinary(); err == nil {
			t.Errorf("%s release encoded as a binary artifact", name)
		}
	}
}

// TestBinaryArtifactDecodeAllocs pins decode's allocation count on a
// 100k-point release: the arena is sized once from the node count and
// coordinates land in 1024-node slabs, so allocations stay O(nodes/1024).
func TestBinaryArtifactDecodeAllocs(t *testing.T) {
	tree, err := BuildSpatial(UnitCube(2), makeClusteredPoints(100000), 1.0, SpatialOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := &Release{kind: KindSpatial, mechanism: "spatial", epsilon: 1, params: Params{Seed: 1}, spatial: tree}
	bin, err := rel.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Decode(bin); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(16 + tree.Nodes()/1024); allocs > limit {
		t.Fatalf("Decode of a %d-node artifact made %.0f allocations, want at most %.0f", tree.Nodes(), allocs, limit)
	}
}

// TestBinaryArtifactParamsLayout fails when Params gains a field: the
// artifact's params section must grow with it, under a new
// artifactVersion.
func TestBinaryArtifactParamsLayout(t *testing.T) {
	// Seven encoded fields plus Workers, which is never serialized.
	if n := reflect.TypeOf(Params{}).NumField(); n != 8 {
		t.Fatalf("Params has %d fields; update the binary artifact's params section and bump artifactVersion", n)
	}
}

// TestRenderEnvelopeConcurrent: servers render one release for many
// requests at once, some of which may also marshal it (and so fill the
// Envelope cache); every caller must see the same bytes.
func TestRenderEnvelopeConcurrent(t *testing.T) {
	bin, err := os.ReadFile(filepath.Join("testdata", "spatial_artifact.bin"))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rel.RenderEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				render := rel.RenderEnvelope
				if (g+i)%4 == 0 {
					render = rel.Envelope
				}
				got, err := render()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: envelope differs (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
