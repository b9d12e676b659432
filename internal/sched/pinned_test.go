package sched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bnb"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// TestPinnedExactSearches pins the answers and tree counts of the two exact
// searches of the benchmark's search-jobs workload, drawn from seed 2 the
// way cmd/mapsearch draws them. The deterministic frontier makes every
// count exact, so a change to the rational kernel or to the bounds that
// moves a period, a prune or a screen shows here. A stronger admissible
// bound moves only the counts: the period and the winning mapping (the
// first optimum in depth-first order) stay where they are.
func TestPinnedExactSearches(t *testing.T) {
	cases := []struct {
		name          string
		stages, procs int
		cm            model.CommModel
		backend       cycles.Backend
		period        string
		mapping       string
		stats         bnb.Stats
	}{
		{"walker-4x10", 4, 10, model.Overlap, cycles.BackendAuto, "47/6", "[[2 5 8] [1] [4 6] [0 3 7 9]]",
			bnb.Stats{Nodes: 3678, Leaves: 418, Pruned: 2297, Infeasible: 0, Screened: 8, Frontier: 173}},
		{"leaves-3x8", 3, 8, model.Strict, cycles.BackendAuto, "55769913/10291120", "[[7] [4 6] [1 2 3 5]]",
			bnb.Stats{Nodes: 4350, Leaves: 157, Pruned: 3675, Infeasible: 0, Screened: 8, Frontier: 136}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			pipe := pipeline.Random(rng, c.stages, 50, 500)
			plat := platform.Random(rng, c.procs, 5, 25, 20, 200)
			eng := engine.New(engine.Options{Workers: 1, Backend: c.backend})
			res, err := BranchAndBoundEngineOpts(context.Background(), eng, pipe, plat, c.cm, bnb.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Proven {
				t.Fatal("search not proven")
			}
			if got := res.Period.String(); got != c.period {
				t.Errorf("period = %s, want %s", got, c.period)
			}
			if got := fmt.Sprint(res.Mapping.Replicas); got != c.mapping {
				t.Errorf("mapping = %s, want %s", got, c.mapping)
			}
			if res.Stats != c.stats {
				t.Errorf("stats = %+v, want %+v", res.Stats, c.stats)
			}
		})
	}
}
