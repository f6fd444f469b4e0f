// Command perfbench is privtree's end-to-end benchmark. It runs privtreed
// in process (server.New with a data directory, behind a loopback
// listener) and drives it through the public client package, with at most
// two analysts at a time, each waiting for its reply before the next call.
//
//	perfbench --workload query-large --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) times each layer from outside the program and reports the
// per-layer metrics, writes its spans to .bench_build/perfbench-spans/,
// and prints one ladder per path: the end-to-end median, the sum of the
// layers measured, and the remainder. Both check every output; the last
// line of standard output is the result as one JSON object.
//
// run.sh builds and runs it from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: query-large, release-churn or stream-ingest")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (query-large, release-churn, stream-ingest), --seconds > 0, --trace 0|1\n")
		return 2
	}
	work := filepath.Join(".bench_build", "perfbench-work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{
		spec:    spec,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		work:    work,
		out:     os.Stdout,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string][]float64{},
	}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	if err := spec.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		for _, f := range b.t.failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		return 1
	}
	b.closedLoopGuard()
	b.logf("checks done")

	specs, values := endToEnd, b.e2e
	if b.traced() {
		b.finishLayers()
		specs, values = perLayer, b.layer
		for _, o := range b.t.ops {
			if o.traced {
				b.rec.add(span{Trace: o.trace, Layer: "client", Name: o.kind, Start: o.start, Dur: o.lat})
			}
		}
		path := filepath.Join(".bench_build", "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := b.rec.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		b.logf("spans: %s (%d)", path, len(b.rec.spans))
		for _, l := range b.ladders {
			b.logf("%s", l)
		}
	}
	metrics, err := report(specs, values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, s := range specs {
		b.logf("%-34s %14.4f %s", s.name, metrics[s.name].Value, s.unit)
	}
	for i, f := range b.t.failures {
		if i == 20 {
			b.logf("... %d more failures", len(b.t.failures)-i)
			break
		}
		b.logf("FAIL %s", f)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.t.failures) == 0,
		Attempted: b.t.attempted,
		Failed:    len(b.t.failures),
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
