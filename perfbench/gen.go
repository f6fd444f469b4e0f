package main

import (
	"math"
	"math/rand/v2"

	"privtree/client"
	"privtree/internal/geom"
	"privtree/internal/workload"
)

// Input generation. Everything the server receives is made here from the
// run's seed; the same seed gives byte-identical request bodies.
//
// The spatial data imitates check-ins: a fixed map of Zipf-weighted
// Gaussian cities over a uniform background. The map itself comes from a
// constant seed, so every run sees the same skew and the tree a release
// builds has the same shape from seed to seed; the run's seed draws which
// points are sampled from it, the queries, and the release schedule.

const (
	cities        = 40
	mapSeed       = 0x5eed_c17e5
	backgroundPct = 20
)

var unitSquare = geom.UnitCube(2)

// cityMap is the fixed cluster layout points are drawn from.
type cityMap struct {
	centers [cities][2]float64
	sigmas  [cities]float64
	cdf     [cities]float64
}

func newCityMap() *cityMap {
	rng := rand.New(rand.NewPCG(mapSeed, 0))
	m := &cityMap{}
	var total float64
	for i := range m.centers {
		m.centers[i] = [2]float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
		m.sigmas[i] = 0.005 + 0.03*rng.Float64()
		total += 1 / float64(i+1)
		m.cdf[i] = total
	}
	for i := range m.cdf {
		m.cdf[i] /= total
	}
	return m
}

// point draws one point of the map.
func (m *cityMap) point(rng *rand.Rand) []float64 {
	if rng.IntN(100) < backgroundPct {
		return []float64{rng.Float64(), rng.Float64()}
	}
	u := rng.Float64()
	c := 0
	for c < cities-1 && m.cdf[c] < u {
		c++
	}
	return []float64{
		clamp01(m.centers[c][0] + m.sigmas[c]*rng.NormFloat64()),
		clamp01(m.centers[c][1] + m.sigmas[c]*rng.NormFloat64()),
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		return math.Nextafter(1, 0)
	}
	return x
}

// rngFor derives an independent generator for one purpose of one run.
func rngFor(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

// Generator purposes, so that adding one input never shifts another.
const (
	purposePoints uint64 = iota + 1
	purposeQueries
	purposeSchedule
	purposeStream
)

// points draws n points of the city map.
func points(seed uint64, n int) [][]float64 {
	m := newCityMap()
	rng := rngFor(seed, purposePoints)
	out := make([][]float64, n)
	for i := range out {
		out[i] = m.point(rng)
	}
	return out
}

// queryBatch is one generated query batch: the wire request and the same
// rectangles in library form for replays and exact counts.
type queryBatch struct {
	req   client.QueryRequest
	rects []geom.Rect
}

// queryPool generates count batches of size queries each, mixing the
// paper's small, medium and large classes (Section 6.1) in equal thirds.
func queryPool(seed uint64, count, size int) []queryBatch {
	rng := rngFor(seed, purposeQueries)
	classes := []workload.SizeClass{workload.Small, workload.Medium, workload.Large}
	out := make([]queryBatch, count)
	for b := range out {
		var rects []geom.Rect
		for i, c := range classes {
			n := size / len(classes)
			if i < size%len(classes) {
				n++
			}
			rects = append(rects, workload.Queries(unitSquare, c, n, rng)...)
		}
		rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
		rows := make([][]float64, len(rects))
		for i, r := range rects {
			rows[i] = []float64{r.Lo[0], r.Lo[1], r.Hi[0], r.Hi[1]}
		}
		out[b] = queryBatch{req: client.QueryRequest{Queries: rows}, rects: rects}
	}
	return out
}

// releaseSchedule returns the ε of each release request a release-churn
// run sends, in order. Request k of the fresh ones asks for ε = 1 + k·10⁻⁶,
// so every fresh request is a new release without relying on a seed; every
// eighth request repeats an earlier ε, drawn from the seed, and must be
// served from cache. Fixing where the repeats fall keeps the number of
// releases a run makes independent of the seed.
func releaseSchedule(seed uint64, n int) []float64 {
	rng := rngFor(seed, purposeSchedule)
	out := make([]float64, 0, n)
	fresh := 0
	for len(out) < n {
		if fresh > 0 && len(out)%8 == 7 {
			out = append(out, churnEpsilon(1+rng.IntN(fresh)))
			continue
		}
		fresh++
		out = append(out, churnEpsilon(fresh))
	}
	return out
}

func churnEpsilon(k int) float64 { return 1 + float64(k)*1e-6 }

// ingestBatch generates batch k (0-based) of a stream: size points with
// batch sequence number k+1, sealing when k+1 is a multiple of sealEvery.
// Each batch has a generator of its own, so any batch can be made again
// when it is needed without keeping the stream in memory.
func ingestBatch(seed uint64, k, size, sealEvery int) client.IngestRequest {
	m := newCityMap()
	rng := rngFor(seed, purposeStream<<32|uint64(k))
	pts := make([][]float64, size)
	for j := range pts {
		pts[j] = m.point(rng)
	}
	return client.IngestRequest{
		BatchSeq: uint64(k + 1),
		Points:   pts,
		Seal:     (k+1)%sealEvery == 0,
	}
}
