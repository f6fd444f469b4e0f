package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"privtree"
	"privtree/internal/store"
)

// TestJSONArtifactStoresStillServe covers data dirs written before binary
// artifacts, whose stores hold JSON envelopes: one with only JSON
// commits, and one where binary commits follow them. A server over each
// must recover it, serve every release's persisted JSON bytes across a
// restart, and replicate it to a fresh replica serving the same bytes.
func TestJSONArtifactStoresStillServe(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		name := "json-only"
		if mixed {
			name = "json-then-binary"
		}
		t.Run(name, func(t *testing.T) {
			dataDir := t.TempDir()
			want := seedJSONStore(t, dataDir)
			if mixed {
				srv := mustNew(t, Options{DataDir: dataDir, Workers: 1})
				ts := httptest.NewServer(srv)
				var rel releaseResponse
				if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/datasets/legacy/releases",
					map[string]any{"epsilon": 0.125, "seed": 9}, &rel); code != http.StatusCreated {
					t.Fatalf("release on a JSON store: %d", code)
				}
				want = append(want, fetchArtifact(t, ts.Client(), ts.URL+"/v1/datasets/legacy/releases/"+rel.Release.ID))
				ts.Close()
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				// The new commit is binary; the old ones stay JSON.
				d := storeArtifactKinds(t, filepath.Join(dataDir, "datasets", "legacy", "store"))
				if d[true] != 1 || d[false] != 2 {
					t.Fatalf("store holds %d binary and %d JSON artifacts, want 1 and 2", d[true], d[false])
				}
			}

			// Restart: every release serves the bytes it had.
			primary := mustNew(t, Options{DataDir: dataDir, Workers: 1})
			defer primary.Close()
			tsP := httptest.NewServer(primary)
			defer tsP.Close()
			client := tsP.Client()
			assertArtifacts(t, client, tsP.URL, want)

			// A fresh replica catches up and serves the same bytes.
			replica := mustNew(t, Options{DataDir: t.TempDir(), Workers: 1,
				ReplicaOf: tsP.URL, ReplicaPoll: 10 * time.Millisecond})
			defer replica.Close()
			tsR := httptest.NewServer(replica)
			defer tsR.Close()
			dP, _ := primary.Registry().Get("legacy")
			waitUntil(t, "replica catch-up", func() bool {
				dR, ok := replica.Registry().Get("legacy")
				return ok && dR.NumReleases() == dP.NumReleases()
			})
			assertArtifacts(t, client, tsR.URL, want)
		})
	}
}

// seedJSONStore registers dataset "legacy" under dataDir and commits two
// releases of it as JSON envelopes, the way stores were written before
// binary artifacts: a debit, then a commit of the envelope bytes. It
// returns the committed bytes in commit order (release IDs r1, r2).
func seedJSONStore(t *testing.T, dataDir string) [][]byte {
	t.Helper()
	srv := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	ts := httptest.NewServer(srv)
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/datasets", map[string]any{
		"name": "legacy", "epsilon": 2.0,
		"synthetic": map[string]any{"generator": "road", "n": 3000, "seed": 42},
	}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	d, _ := srv.Registry().Get("legacy")
	var rels []*privtree.Release
	for _, seed := range []uint64{7, 8} {
		m, err := ReleaseParams{Epsilon: 0.25, Seed: seed}.mechanism(KindSpatial, 1)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := m.Run(d.data, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(filepath.Join(dataDir, "datasets", "legacy", "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out [][]byte
	for _, rel := range rels {
		blob, err := rel.Envelope()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendDebit(rel.Epsilon(), rel.Fingerprint()); err != nil {
			t.Fatal(err)
		}
		if err := st.CommitRelease(rel.Fingerprint(), blob); err != nil {
			t.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// storeArtifactKinds counts a closed store's artifacts by encoding
// (true = binary).
func storeArtifactKinds(t *testing.T, dir string) map[bool]int {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := make(map[bool]int)
	for _, c := range st.Commits() {
		blob, err := st.LoadArtifact(c.SHA)
		if err != nil {
			t.Fatal(err)
		}
		info, err := privtree.InspectEnvelope(blob)
		if err != nil {
			t.Fatal(err)
		}
		out[info.Binary]++
	}
	return out
}

// assertArtifacts requires release r<i+1> of "legacy" to serve want[i]
// byte for byte.
func assertArtifacts(t *testing.T, client *http.Client, base string, want [][]byte) {
	t.Helper()
	for i, blob := range want {
		id := fmt.Sprintf("r%d", i+1)
		if got := fetchArtifact(t, client, base+"/v1/datasets/legacy/releases/"+id); !bytes.Equal(got, blob) {
			t.Fatalf("%s: release %s serves different artifact bytes", base, id)
		}
	}
}
