package privtree

import (
	"bytes"
	"path/filepath"
	"testing"

	"privtree/internal/store"
)

// writeJSONCommits appends releases to the store at dir the way stores
// were written before binary artifacts: a debit, then a commit of the
// release's JSON envelope. It returns the committed bytes by fingerprint.
func writeJSONCommits(t *testing.T, dir string, rels ...*Release) map[string][]byte {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := make(map[string][]byte)
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
		out[rel.Fingerprint()] = blob
	}
	return out
}

// TestOpenSessionRecoversJSONArtifacts: a store holding JSON artifacts —
// only JSON, or JSON commits followed by binary ones — recovers through
// OpenSession. Each JSON-backed release serves its persisted bytes
// verbatim; each binary-backed one renders the envelope its release had.
func TestOpenSessionRecoversJSONArtifacts(t *testing.T) {
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(2000))
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, seed uint64, eps float64) *Release {
		t.Helper()
		m, err := NewSpatialMechanism(SpatialOptions{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := m.Run(data, eps)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}

	for _, mixed := range []bool{false, true} {
		name := "json-only"
		if mixed {
			name = "json-then-binary"
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			want := writeJSONCommits(t, dir, run(t, 7, 0.25), run(t, 8, 0.25))
			spent := 0.5
			if mixed {
				s, err := OpenSession(dir, 1.0)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewSpatialMechanism(SpatialOptions{Seed: 9, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				rel, cached, err := s.Release(m, data, 0.125)
				if err != nil || cached {
					t.Fatalf("release on a JSON store: cached=%v err=%v", cached, err)
				}
				env, err := rel.RenderEnvelope()
				if err != nil {
					t.Fatal(err)
				}
				want[rel.Fingerprint()] = env
				spent += 0.125
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}

			s, err := OpenSession(dir, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Spent(); got != spent {
				t.Fatalf("recovered spent = %v, want %v", got, spent)
			}
			restored := s.Restored()
			if len(restored) != len(want) {
				t.Fatalf("%d releases recovered, want %d", len(restored), len(want))
			}
			for i, rr := range restored {
				got, err := rr.Release.RenderEnvelope()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[rr.Release.Fingerprint()]) {
					t.Fatalf("release %d serves different envelope bytes", i)
				}
				// JSON commits pin their persisted bytes; binary ones pin none.
				pinned := rr.Release.wire.Load() != nil
				if jsonBacked := i < 2; pinned != jsonBacked {
					t.Fatalf("release %d: pinned=%v, want %v", i, pinned, jsonBacked)
				}
			}
		})
	}
}
