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

// TestPinnedExactSearches pins the answers and tree counts of the two exact
// searches of the benchmark's search-jobs workload, drawn from seed 2 the
// way cmd/mapsearch draws them. The deterministic frontier makes every
// count exact, so a change to the rational kernel or to the bounds that
// moves a period, a prune or a screen shows here.
func TestPinnedExactSearches(t *testing.T) {
	cases := []struct {
		name          string
		stages, procs int
		cm            model.CommModel
		backend       cycles.Backend
		period        string
		stats         bnb.Stats
	}{
		{"walker-4x10", 4, 10, model.Overlap, cycles.BackendAuto, "47/6",
			bnb.Stats{Nodes: 1303495, Leaves: 6956, Pruned: 1194805, Infeasible: 0, Screened: 0, Frontier: 777}},
		{"leaves-3x8", 3, 8, model.Strict, cycles.BackendFloatScreen, "55769913/10291120",
			bnb.Stats{Nodes: 40417, Leaves: 5211, Pruned: 31738, Infeasible: 0, Screened: 4746, Frontier: 197}},
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
			if res.Stats != c.stats {
				t.Errorf("stats = %+v, want %+v", res.Stats, c.stats)
			}
		})
	}
}
