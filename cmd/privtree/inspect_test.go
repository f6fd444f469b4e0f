package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privtree"
)

// captureStdout runs f and returns what it printed to stdout.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	ferr := f()
	os.Stdout = orig
	w.Close()
	return string(<-done), ferr
}

// binaryStore commits one spatial release through a session into a fresh
// store at dir, which a session writes as a binary artifact, and returns
// the release.
func binaryStore(t *testing.T, dir string) *privtree.Release {
	t.Helper()
	pts := make([]privtree.Point, 2000)
	for i := range pts {
		pts[i] = privtree.Point{float64(i%97) / 97, float64((i*31)%89) / 89}
	}
	data, err := privtree.NewSpatialData(privtree.UnitCube(2), pts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := privtree.NewSpatialMechanism(privtree.SpatialOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := privtree.OpenSession(dir, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := s.Release(m, data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestInspectBinaryArtifact: inspect reads a binary store artifact's
// header alone, so it reports provenance even when the arena behind it
// is damaged.
func TestInspectBinaryArtifact(t *testing.T) {
	dir := t.TempDir()
	rel := binaryStore(t, dir)
	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifacts = %v, %v", arts, err)
	}
	blob, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-10] ^= 0xff // inside the arena: Decode would refuse it
	damaged := filepath.Join(t.TempDir(), "damaged.bin")
	if err := os.WriteFile(damaged, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := privtree.Decode(blob); err == nil {
		t.Fatal("damaged artifact decoded")
	}

	out, err := captureStdout(t, func() error { return runInspect([]string{damaged}) })
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	for _, want := range []string{
		"encoding:      binary",
		"version:       1",
		"kind:          spatial",
		"mechanism:     spatial",
		"epsilon:       0.5",
		"seed:          5",
		"fingerprint:   " + rel.Fingerprint(),
		"payload_bytes: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output lacks %q:\n%s", want, out)
		}
	}
}

// TestVerifyBinaryArtifactStore: verify passes a store holding a binary
// artifact, and reports a corrupted one as a content-hash mismatch.
func TestVerifyBinaryArtifactStore(t *testing.T) {
	dir := t.TempDir()
	binaryStore(t, dir)
	arts, _ := filepath.Glob(filepath.Join(dir, "artifacts", "*"))
	if len(arts) != 1 {
		t.Fatalf("artifacts = %v", arts)
	}
	blob, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	if info, err := privtree.InspectEnvelope(blob); err != nil || !info.Binary {
		t.Fatalf("store artifact is not binary: %+v, %v", info, err)
	}
	if _, err := captureStdout(t, func() error { return runVerify([]string{dir}) }); err != nil {
		t.Fatalf("verify of a clean binary store: %v", err)
	}

	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(arts[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return runVerify([]string{dir}) })
	if err == nil {
		t.Fatal("verify accepted a corrupted binary artifact")
	}
	finding := filepath.Join("artifacts", filepath.Base(arts[0])) + ": bytes do not hash to the file's content address"
	if !strings.Contains(out, "CORRUPT") || !strings.Contains(out, finding) {
		t.Fatalf("verify did not report the hash mismatch:\n%s", out)
	}
}
