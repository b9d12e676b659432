package sched

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bnb"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// BenchmarkBestOf runs one cold best-of search per op (a fresh engine, the
// same rng seed) on fixed problems of the search-jobs size: overlap
// problems of 3–4 stages on 6–8 processors, whose random-search and
// annealing candidates go through the column evaluator, and one strict
// problem, whose candidates go through the engine. column-solves/op counts
// the communication columns whose pattern graphs were built and solved.
func BenchmarkBestOf(b *testing.B) {
	cases := []struct {
		name          string
		seed          int64
		stages, procs int
		cm            model.CommModel
	}{
		{"overlap-3x6", 31, 3, 6, model.Overlap},
		{"overlap-4x7", 32, 4, 7, model.Overlap},
		{"overlap-3x8", 33, 3, 8, model.Overlap},
		{"overlap-4x8", 34, 4, 8, model.Overlap},
		{"strict-3x6", 35, 3, 6, model.Strict},
	}
	for _, c := range cases {
		pipe, plat := goldenProblem(c.seed, c.stages, c.procs, false)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			solves := columnSolves.Load()
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Options{Workers: 1})
				if _, err := BestOfEngine(context.Background(), eng, pipe, plat, c.cm, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(columnSolves.Load()-solves)/float64(b.N), "column-solves/op")
		})
	}
}

// BenchmarkExactSearchBackends runs the leaves-3x8 search of
// TestPinnedExactSearches (seed 2, 3 stages on 8 heterogeneous processors,
// strict model) with one walker on a fresh engine per op, under
// BackendAuto, whose leaves the cutoff's potential checks decide, and under
// BackendHoward, whose leaves it cuts only after a full Howard evaluation,
// so the time the checks save shows. With -count N the two alternate.
func BenchmarkExactSearchBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pipe := pipeline.Random(rng, 3, 50, 500)
	plat := platform.Random(rng, 8, 5, 25, 20, 200)
	for _, backend := range []cycles.Backend{cycles.BackendAuto, cycles.BackendHoward} {
		b.Run(backend.String(), func(b *testing.B) {
			var res ExactResult
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Options{Workers: 1, Backend: backend})
				var err error
				res, err = BranchAndBoundEngineOpts(context.Background(), eng, pipe, plat, model.Strict, bnb.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !res.Proven || res.Period.String() != "55769913/10291120" {
				b.Fatalf("search answered %v (proven %v)", res.Period, res.Proven)
			}
			b.ReportMetric(float64(res.Stats.Leaves), "leaves/op")
			b.ReportMetric(float64(res.Stats.Screened), "screened/op")
		})
	}
}

// BenchmarkBatchHeuristics runs one cold greedy and one cold exhaustive
// one-to-one search per op (a fresh one-worker engine each) on strict
// problems drawn from seed 2 as cmd/mapsearch draws them: greedy on 5
// stages and 12 processors, exhaustive on 4 stages and 10 processors
// (5,040 assignments). Both pass their running best to the engine's exact
// cutoff, so the time shows what it saves on the batch heuristics.
func BenchmarkBatchHeuristics(b *testing.B) {
	cases := []struct {
		name          string
		stages, procs int
		run           func(context.Context, *engine.Engine, *pipeline.Pipeline, *platform.Platform, model.CommModel) (Result, error)
	}{
		{"greedy-strict-5x12", 5, 12, GreedyEngine},
		{"exhaustive-strict-4x10", 4, 10, ExhaustiveOneToOneEngine},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(2))
		pipe := pipeline.Random(rng, c.stages, 50, 500)
		plat := platform.Random(rng, c.procs, 5, 25, 20, 200)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Options{Workers: 1})
				if _, err := c.run(context.Background(), eng, pipe, plat, model.Strict); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
