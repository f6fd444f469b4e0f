package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec declares one reported metric. BENCHMARK.json declares the
// same names, units and directions; a self-test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end metrics only
}

// endToEnd are what a user of privtreed sees and what holds still from
// run to run of one build on a shared host, so a regression gate can use
// them; every workload reports every one of them. The latencies,
// throughput, restart and catch-up times a user also sees do not hold
// still there (the same build's runs spread by a third to a half between
// quartiles), so they are reported raw, without a bound, as the first
// per-layer metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"store_bytes_per_release", "bytes", "lower", 0.05},
	{"avg_rel_error", "ratio", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// userFacing are the per-layer metrics a user sees directly, reported raw
// (see endToEnd). layers.json maps the layers onto them as well as onto
// the end-to-end metrics.
var userFacing = perLayer[:5]

// perLayer are timed from outside the program, in the traced run only.
var perLayer = []metricSpec{
	{name: "client.op.p50_ms", unit: "ms", better: "lower"},
	{name: "client.op.tail_ms", unit: "ms", better: "lower"},
	{name: "client.queries_per_s", unit: "1/s", better: "higher"},
	{name: "server.recover_s", unit: "s", better: "lower"},
	{name: "repl.catchup_s", unit: "s", better: "lower"},
	{name: "client.op.self_ms", unit: "ms", better: "lower"},
	{name: "server.op.busy_ms", unit: "ms", better: "lower"},
	{name: "server.op.remainder_ms", unit: "ms", better: "lower"},
	{name: "client.query.self_ms", unit: "ms", better: "lower"},
	{name: "server.query.busy_ms", unit: "ms", better: "lower"},
	{name: "server.query.remainder_ms", unit: "ms", better: "lower"},
	{name: "client.build.ms", unit: "ms", better: "lower"},
	{name: "server.build.busy_ms", unit: "ms", better: "lower"},
	{name: "privtree.rangecount.us_per_query", unit: "us", better: "lower"},
	{name: "privtree.build.ms", unit: "ms", better: "lower"},
	{name: "privtree.envelope_encode.ms", unit: "ms", better: "lower"},
	{name: "privtree.envelope.bytes", unit: "bytes", better: "lower"},
	{name: "privtree.session_release.ms", unit: "ms", better: "lower"},
	{name: "privtree.decode.ms", unit: "ms", better: "lower"},
	{name: "privtree.data_load.ms", unit: "ms", better: "lower"},
	{name: "core.tree.nodes", unit: "count", better: "lower"},
	{name: "core.tree.height", unit: "count", better: "lower"},
	{name: "store.fsync_ms", unit: "ms", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.wal_bytes", unit: "bytes", better: "lower"},
	{name: "store.artifact_bytes", unit: "bytes", better: "lower"},
	{name: "repl.wal_pull_ms", unit: "ms", better: "lower"},
	{name: "repl.artifact_fetch_ms", unit: "ms", better: "lower"},
	{name: "repl.bytes_shipped", unit: "bytes", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.alloc_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report turns measured values into the declared metric set: every
// declared metric must be present and finite, and nothing undeclared may
// appear.
func report(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	declared := make(map[string]bool, len(specs))
	for _, s := range specs {
		declared[s.name] = true
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number (%v)", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	var extra []string
	for name := range values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
