package sched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// goldenProblem draws a fixed problem; sparse drops about a third of the
// links so some walk candidates are infeasible.
func goldenProblem(seed int64, stages, procs int, sparse bool) (*pipeline.Pipeline, *platform.Platform) {
	rng := rand.New(rand.NewSource(seed))
	pipe := pipeline.Random(rng, stages, 50, 500)
	plat := platform.Random(rng, procs, 5, 25, 20, 200)
	if sparse {
		for u := range plat.Bandwidths {
			for v := range plat.Bandwidths[u] {
				if u != v && rng.Intn(3) == 0 {
					plat.Bandwidths[u][v] = 0
				}
			}
		}
	}
	return pipe, plat
}

// TestWalksGolden pins the mapping and period of the sequential walks on
// fixed problems and rng seeds, dense and sparse, on an auto engine and on
// one configured by the deprecated "float-screen" alias of auto. The values
// are those the walks return when every candidate goes through
// model.FromMapped and the engine, so they show that pricing overlap
// candidates column by column moves no answer.
func TestWalksGolden(t *testing.T) {
	cases := []struct {
		name          string
		seed          int64
		stages, procs int
		sparse        bool
		cm            model.CommModel
		run           func(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand) (Result, error)
		want          string
	}{
		{"best-3x7", 21, 3, 7, false, model.Overlap, bestOf, "451/46 [[4 6] [1 5] [0 3]]"},
		{"best-4x8", 22, 4, 8, false, model.Overlap, bestOf, "247/28 [[2 6] [5 7] [0 3] [1 4]]"},
		{"best-sparse-3x7", 23, 3, 7, true, model.Overlap, bestOf, "20445/1804 [[0 3] [2 5] [6]]"},
		{"random-4x8", 24, 4, 8, false, model.Overlap, randomWalk, "450/23 [[0] [2 4 5 6 7] [1] [3]]"},
		{"random-sparse-3x7", 25, 3, 7, true, model.Overlap, randomWalk, "162/17 [[0 6] [2 4] [5]]"},
		{"anneal-3x6", 26, 3, 6, false, model.Overlap, annealWalk, "407/36 [[2] [0 3] [1 4]]"},
		{"anneal-4x8", 27, 4, 8, false, model.Overlap, annealWalk, "237/19 [[1 2] [0 5 6] [3 4] [7]]"},
		{"random-strict-3x6", 28, 3, 6, false, model.Strict, randomWalk, "25403/1573 [[3 4] [0 5] [2]]"},
	}
	for _, c := range cases {
		for _, backendName := range []string{"auto", "float-screen"} {
			t.Run(c.name+"/"+backendName, func(t *testing.T) {
				backend, err := cycles.ParseBackend(backendName)
				if err != nil {
					t.Fatal(err)
				}
				pipe, plat := goldenProblem(c.seed, c.stages, c.procs, c.sparse)
				eng := engine.New(engine.Options{Workers: 1, Backend: backend})
				res, err := c.run(context.Background(), eng, pipe, plat, c.cm, rand.New(rand.NewSource(c.seed)))
				got := fmt.Sprint(err)
				if err == nil {
					got = fmt.Sprintf("%s %v", res.Period, res.Mapping.Replicas)
				}
				if got != c.want {
					t.Errorf("got %q, want %q", got, c.want)
				}
			})
		}
	}
}

func bestOf(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand) (Result, error) {
	return BestOfEngine(ctx, eng, pipe, plat, cm, rng)
}

func randomWalk(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand) (Result, error) {
	return RandomSearchEngine(ctx, eng, pipe, plat, cm, rng, 8, 40)
}

func annealWalk(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand) (Result, error) {
	return AnnealEngine(ctx, eng, pipe, plat, cm, rng, AnnealOptions{Steps: 600})
}
