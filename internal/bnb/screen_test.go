package bnb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// TestScreeningBitIdenticalAcrossWorkerCounts is the determinism gate of
// the exact cutoff inside the branch and bound: every leaf evaluated with a
// reference goes through engine.EvaluateBelow, and the mapping, period,
// proven flag and every Stats counter, Screened included, must be identical
// at 1 and 3 walkers on engines of 1 and 4 workers, and on one memoizing
// engine shared by all those runs, whose memo answers later runs' leaves.
// The cutoff decides each leaf by its exact period against the walker's
// reference, so no count may depend on parallelism or on memo state. And
// Screened must be positive somewhere, or the cutoff is dead code.
func TestScreeningBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// A small frontier gives each subtree walker many leaves, so it has a
	// local incumbent to cut against from the second leaf on even without
	// a warm start.
	opts := Options{FrontierTarget: 4}
	var totalScreened int64
	for _, f := range append(generatedFamilies(t, []int64{5, 6}), leavesFamily()) {
		t.Run(f.name, func(t *testing.T) {
			o := opts
			o.Workers = 1
			ref, refErr := Search(context.Background(), engine.New(engine.Options{Workers: 1}), f.pipe, f.plat, f.cm, o)
			shared := engine.New(engine.Options{Workers: 2})
			for _, workers := range []int{1, 3} {
				for _, engWorkers := range []int{1, 4, 0} {
					eng, name := shared, "shared"
					if engWorkers > 0 {
						eng, name = engine.New(engine.Options{Workers: engWorkers}), fmt.Sprint(engWorkers)
					}
					o := opts
					o.Workers = workers
					res, err := Search(context.Background(), eng, f.pipe, f.plat, f.cm, o)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("workers=%d/%s: err %v, reference err %v", workers, name, err, refErr)
					}
					if err != nil {
						continue
					}
					if res.Mapping.String() != ref.Mapping.String() ||
						!res.Period.Equal(ref.Period) ||
						res.Proven != ref.Proven {
						t.Fatalf("workers=%d/%s: answer diverged:\n got %v %v proven=%v\nwant %v %v proven=%v",
							workers, name, res.Mapping, res.Period, res.Proven,
							ref.Mapping, ref.Period, ref.Proven)
					}
					if res.Stats != ref.Stats {
						t.Fatalf("workers=%d/%s: stats diverged:\n got %+v\nwant %+v",
							workers, name, res.Stats, ref.Stats)
					}
				}
			}
			if refErr == nil {
				if ref.Stats.Screened > ref.Stats.Leaves {
					t.Fatalf("screened %d of only %d leaves", ref.Stats.Screened, ref.Stats.Leaves)
				}
				totalScreened += ref.Stats.Screened
			}
		})
	}
	if totalScreened == 0 {
		t.Fatal("no family screened a single leaf: the cutoff never engaged")
	}
}

// leavesFamily is the search-jobs benchmark's leaf-heavy problem (3 strict
// stages on 8 heterogeneous processors, drawn from seed 2 as cmd/mapsearch
// does), whose leaves left by the strict cycle-time bound are cut.
func leavesFamily() family {
	rng := rand.New(rand.NewSource(2))
	f := family{name: "leaves-3x8", pipe: pipeline.Random(rng, 3, 50, 500), cm: model.Strict}
	f.plat = platform.Random(rng, 8, 5, 25, 20, 200)
	return f
}

// TestScreeningWithWarmStartSkipsMostLeaves: warm-started with the proven
// optimum, the cutoff has its reference from the first leaf on, so every
// leaf is screened (none can beat the optimum) and the result is still the
// incumbent, proven.
func TestScreeningWithWarmStartSkipsMostLeaves(t *testing.T) {
	// The bounds prune every leaf of the small generated families once the
	// optimum is the reference; this family keeps leaves.
	f := leavesFamily()
	exactEng := engine.New(engine.Options{Workers: 2})
	first, err := Search(context.Background(), exactEng, f.pipe, f.plat, f.cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	warm, err := Search(context.Background(), eng, f.pipe, f.plat, f.cm, Options{
		Incumbent:       first.Mapping,
		IncumbentPeriod: first.Period,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Proven || !warm.Period.Equal(first.Period) || warm.Mapping.String() != first.Mapping.String() {
		t.Fatalf("screened warm restart changed the answer: %v %v proven=%v, want %v %v",
			warm.Mapping, warm.Period, warm.Proven, first.Mapping, first.Period)
	}
	if warm.Stats.Leaves == 0 || warm.Stats.Screened != warm.Stats.Leaves {
		t.Fatalf("optimal warm start screened %d of %d leaves, want all", warm.Stats.Screened, warm.Stats.Leaves)
	}
}
