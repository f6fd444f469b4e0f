package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"privtree/client"
)

// requestBodies renders every request body a run sends for seed, grouped
// by kind, exactly as the client marshals them.
func requestBodies(t *testing.T, seed uint64) map[string][][]byte {
	t.Helper()
	bodies := map[string][][]byte{}
	add := func(kind string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies[kind] = append(bodies[kind], raw)
	}
	add("register", client.RegisterRequest{Name: datasetName, Kind: "spatial", Epsilon: 10, Domain: unitRect(), Points: points(seed, 2000)})
	for _, qb := range queryPool(seed, 3, 300) {
		add("query", qb.req)
	}
	for _, eps := range releaseSchedule(seed, 64) {
		add("release", client.ReleaseParams{Epsilon: eps})
	}
	for k := 0; k < 30; k++ {
		add("ingest", ingestBatch(seed, k, 20, sealEvery))
	}
	return bodies
}

func TestSameSeedSameRequestBodies(t *testing.T) {
	a, b := requestBodies(t, 7), requestBodies(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different request bodies on two calls")
	}
	c := requestBodies(t, 8)
	for kind, bodies := range a {
		if len(bodies) != len(c[kind]) {
			t.Fatalf("%s: seeds 7 and 8 generated %d and %d bodies", kind, len(bodies), len(c[kind]))
		}
		differ := 0
		for i := range bodies {
			if string(bodies[i]) != string(c[kind][i]) {
				differ++
			}
		}
		switch {
		case kind == "release" && differ == 0:
			// Fresh releases ask for ε = 1 + k·10⁻⁶ whatever the seed;
			// the repeats the seed draws must differ somewhere.
			t.Errorf("release: seeds 7 and 8 generated the same schedule")
		case kind != "release" && differ != len(bodies):
			t.Errorf("%s: seeds 7 and 8 share %d of %d bodies", kind, len(bodies)-differ, len(bodies))
		}
	}
}

func TestReleaseScheduleRepeatsOneInEight(t *testing.T) {
	s := releaseSchedule(3, 4000)
	seen := map[float64]bool{}
	repeats := 0
	for _, e := range s {
		if seen[e] {
			repeats++
		}
		seen[e] = true
	}
	if repeats != len(s)/8 {
		t.Fatalf("%d of %d requests repeat, want one in eight", repeats, len(s))
	}
	if s[0] != churnEpsilon(1) {
		t.Fatalf("first request ε = %v, want a fresh release", s[0])
	}
}

func TestIngestBatchesSealEveryKth(t *testing.T) {
	for i := 0; i < 25; i++ {
		b := ingestBatch(1, i, 4, 10)
		if b.BatchSeq != uint64(i+1) {
			t.Fatalf("batch %d has sequence %d", i, b.BatchSeq)
		}
		if want := (i+1)%10 == 0; b.Seal != want {
			t.Fatalf("batch %d seal=%v, want %v", i, b.Seal, want)
		}
		for _, p := range b.Points {
			if p[0] < 0 || p[0] >= 1 || p[1] < 0 || p[1] >= 1 {
				t.Fatalf("point %v outside the unit square", p)
			}
		}
	}
}

func TestQuantileExactOnKnownSamples(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{ten, 0, 1},
		{ten, 1, 10},
		{ten, 0.9, 9.1},
		{ten, 0.99, 9.91},
		{ten, 0.25, 3.25},
		{[]float64{42}, 0.99, 42},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	if ten[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestEveryMetricDeclaredInBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, layer []metricSpec
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricSpec{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the metrics printed\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the metrics printed\n%v", layer, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
		if m.unit == "" || (m.better != "lower" && m.better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", m.name, m.unit, m.better)
		}
	}
	if _, ok := seen["setup_s"]; !ok {
		t.Error("setup_s is not declared")
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", names, ours)
	}
}

func TestReportPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.name] = 1
	}
	got, err := report(endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) || got["setup_s"].Unit != "s" {
		t.Fatalf("report = %v", got)
	}
	values["undeclared"] = 1
	if _, err := report(endToEnd, values); err == nil {
		t.Error("an undeclared metric was printed")
	}
	delete(values, "undeclared")
	delete(values, "setup_s")
	if _, err := report(endToEnd, values); err == nil {
		t.Error("a declared metric was left out")
	}
	values["setup_s"] = math.NaN()
	if _, err := report(endToEnd, values); err == nil {
		t.Error("a NaN metric was printed")
	}
}

// layerMap is layers.json: for each workload the layer it stresses, for
// each per-layer metric how it is measured and which end-to-end metric on
// which workload it should move, and the traffic shape's values with the
// basis of each.
type layerMap struct {
	Workloads map[string]struct {
		Op       string `json:"op"`
		Stresses string `json:"stresses"`
	} `json:"workloads"`
	EndToEnd map[string]string `json:"end_to_end"`
	PerLayer map[string]struct {
		How   string   `json:"how"`
		Moves []string `json:"moves"`
	} `json:"per_layer"`
	Pacing map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Basis string  `json:"basis"`
		Why   string  `json:"why"`
	} `json:"pacing"`
}

func readLayerMap(t *testing.T) layerMap {
	t.Helper()
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m layerMap
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("layers.json: %v", err)
	}
	return m
}

func TestLayerMapCoversEveryMetric(t *testing.T) {
	m := readLayerMap(t)
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.name] = true
		if m.Workloads[w.name].Stresses == "" || m.Workloads[w.name].Op == "" {
			t.Errorf("layers.json: workload %s has no op or stressed layer", w.name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("layers.json names %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	e2e := map[string]bool{}
	for _, s := range endToEnd {
		e2e[s.name] = true
		if m.EndToEnd[s.name] == "" {
			t.Errorf("layers.json: end-to-end metric %s is not described", s.name)
		}
	}
	// A layer may also move a figure a user sees that is reported raw.
	for _, s := range userFacing {
		e2e[s.name] = true
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("layers.json describes %d end-to-end metrics, %d are printed", len(m.EndToEnd), len(endToEnd))
	}
	for _, s := range perLayer {
		l, ok := m.PerLayer[s.name]
		if !ok || l.How == "" {
			t.Errorf("layers.json: per-layer metric %s is not described", s.name)
			continue
		}
		for _, mv := range l.Moves {
			metric, workload, found := strings.Cut(mv, "@")
			if !found || !e2e[metric] || (workload != "all" && !wl[workload]) {
				t.Errorf("layers.json: %s moves %q, which names no end-to-end or user-facing metric@workload", s.name, mv)
			}
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("layers.json describes %d per-layer metrics, %d are printed", len(m.PerLayer), len(perLayer))
	}
}

// TestPacingMatchesLayerMap keeps layers.json's list of the traffic
// shape, with the basis of each value, in step with the constants.
func TestPacingMatchesLayerMap(t *testing.T) {
	m := readLayerMap(t)
	want := map[string]float64{
		"spatialN":          spatialN,
		"largeBatch":        largeBatch,
		"smallBatch":        smallBatch,
		"smallPool":         smallPool,
		"readerThink":       readerThink.Seconds(),
		"releasesPerSecond": releasesPerSecond,
		"ingestPoints":      ingestPoints,
		"ingestPerSecond":   ingestPerSecond,
		"sealEvery":         sealEvery,
		"window":            window,
		"epochEpsilon":      epochEpsilon,
	}
	for name, v := range want {
		p, ok := m.Pacing[name]
		switch {
		case !ok:
			t.Errorf("layers.json: pacing does not list %s", name)
		case p.Value != v:
			t.Errorf("layers.json: %s = %v, the benchmark uses %v", name, p.Value, v)
		case p.Basis != "measured" && p.Basis != "assumption":
			t.Errorf("layers.json: %s has basis %q, want measured or assumption", name, p.Basis)
		case p.Why == "":
			t.Errorf("layers.json: %s says nothing of why", name)
		}
	}
	if len(m.Pacing) != len(want) {
		t.Errorf("layers.json lists %d pacing values, the benchmark has %d", len(m.Pacing), len(want))
	}
}

func TestRouteOf(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/datasets", "register"},
		{"GET", "/v1/datasets/bench", "get_dataset"},
		{"POST", "/v1/datasets/bench/releases", "create_release"},
		{"GET", "/v1/datasets/bench/releases/r3", "get_release"},
		{"POST", "/v1/datasets/bench/releases/latest/query", "query"},
		{"POST", "/v1/datasets/bench/ingest", "ingest"},
		{"GET", "/v1/datasets/bench/audit", "audit"},
		{"GET", "/v1/repl/datasets/bench/wal", "repl"},
	} {
		if got := routeOf(c.method, c.path); got != c.want {
			t.Errorf("routeOf(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}
