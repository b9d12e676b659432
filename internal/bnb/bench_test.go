package bnb

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// BenchmarkBnBSearch measures the exact search end to end: tree walk,
// bounding and per-leaf evaluation through a shared (memoizing) engine —
// the resident-service shape, where repeated searches over a stable
// population hit the cache. nodes/op and prunedPct track the tree the bound
// actually leaves; they are deterministic for a fixed case, so regressions
// in the bound or the symmetry breaking show up as count jumps, not noise.
func BenchmarkBnBSearch(b *testing.B) {
	cases := []struct {
		name string
		pipe *pipeline.Pipeline
		plat *platform.Platform
	}{
		{
			name: "uniform-10x4",
			pipe: pipeline.Random(rand.New(rand.NewSource(1)), 4, 50, 500),
			plat: platform.Uniform(10, 12, 100),
		},
		{
			name: "het-7x3",
			pipe: pipeline.Random(rand.New(rand.NewSource(2)), 3, 50, 500),
			plat: platform.Random(rand.New(rand.NewSource(2)), 7, 5, 25, 20, 200),
		},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			eng := engine.New(engine.Options{})
			var last Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Search(context.Background(), eng, c.pipe, c.plat, model.Overlap, Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			if !last.Proven {
				b.Fatal("benchmark search did not prove its answer")
			}
			b.ReportMetric(float64(last.Stats.Nodes), "nodes/op")
			b.ReportMetric(float64(last.Stats.Leaves), "leaves/op")
			if total := last.Stats.Leaves + last.Stats.Pruned; total > 0 {
				b.ReportMetric(100*float64(last.Stats.Pruned)/float64(total), "prunedPct")
			}
		})
	}
}

// BenchmarkBnBLeafRate isolates the leaf-evaluation throughput the
// float-screening tier buys. The workload is re-verification: the search is
// warm-started with the proven optimum, so every leaf must be ruled out —
// by an exact evaluation on the exact backend, by the float screen (with
// exact fallback for the ambiguous band) on float-screen. Memoization is
// disabled: a shared memo cache would turn the exact run's repeat
// iterations into hash-map lookups and fake the comparison. The leaves/s
// metric (leaves ruled out per second of search) is what the CI gate in
// scripts/benchjson.awk checks: screened must be at least LEAF_GATE x the
// exact rate. The strict model on a heterogeneous platform is the family
// where exact arithmetic is at its most expensive — unfolded-TPN Karp
// tables over rationals whose denominators mix speeds and bandwidths.
func BenchmarkBnBLeafRate(b *testing.B) {
	pipe := pipeline.Random(rand.New(rand.NewSource(3)), 3, 50, 500)
	plat := platform.Random(rand.New(rand.NewSource(3)), 8, 5, 25, 20, 200)
	warm, err := Search(context.Background(), engine.New(engine.Options{}), pipe, plat, model.Strict, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !warm.Proven {
		b.Fatal("warm-up search did not prove its answer")
	}
	for _, bc := range []struct {
		name    string
		backend cycles.Backend
	}{
		{"exact", cycles.BackendAuto},
		{"screened", cycles.BackendFloatScreen},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := engine.New(engine.Options{Backend: bc.backend, CacheEntries: -1})
			opts := Options{Incumbent: warm.Mapping, IncumbentPeriod: warm.Period}
			var last Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Search(context.Background(), eng, pipe, plat, model.Strict, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			if !last.Proven || !last.Period.Equal(warm.Period) {
				b.Fatalf("re-verification changed the answer: proven=%v period=%v", last.Proven, last.Period)
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(last.Stats.Leaves)*float64(b.N)/elapsed, "leaves/s")
			}
			b.ReportMetric(float64(last.Stats.Screened), "screened/op")
			b.ReportMetric(float64(last.Stats.Leaves), "leaves/op")
		})
	}
}
