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

// TestScreeningBitIdenticalAcrossWorkerCounts is the acceptance gate of the
// float-screening tier inside the branch and bound: with the engine on
// cycles.BackendFloatScreen, the mapping, period, proven flag, and the
// Nodes/Leaves/Pruned/Infeasible counts must be bit-identical to the exact
// run at every worker count — screening may only change HOW a leaf is ruled
// out (the Screened counter), never which leaves exist or who wins. The
// Screened count itself must also be deterministic across worker counts,
// and strictly positive somewhere, or the tier is dead code.
func TestScreeningBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// A small frontier gives each subtree walker many leaves, so the screen
	// has a local incumbent to compare against from the second leaf on even
	// without a warm start.
	opts := Options{FrontierTarget: 4}
	var totalScreened int64
	// The search-jobs benchmark's leaf-heavy problem (3 strict stages on 8
	// heterogeneous processors, drawn from seed 2 as cmd/mapsearch does),
	// whose few leaves left by the strict cycle-time bound still screen.
	rng := rand.New(rand.NewSource(2))
	leaves := family{name: "leaves-3x8", pipe: pipeline.Random(rng, 3, 50, 500), cm: model.Strict}
	leaves.plat = platform.Random(rng, 8, 5, 25, 20, 200)
	for _, f := range append(generatedFamilies(t, []int64{5, 6}), leaves) {
		t.Run(f.name, func(t *testing.T) {
			exactEng := engine.New(engine.Options{Workers: 2})
			ref, refErr := Search(context.Background(), exactEng, f.pipe, f.plat, f.cm, opts)
			if refErr == nil && ref.Stats.Screened != 0 {
				t.Fatalf("exact backend screened %d leaves", ref.Stats.Screened)
			}
			firstScreened := int64(-1)
			for _, workers := range []int{1, 3} {
				for _, engWorkers := range []int{1, 4} {
					eng := engine.New(engine.Options{Workers: engWorkers, Backend: cycles.BackendFloatScreen})
					o := opts
					o.Workers = workers
					res, err := Search(context.Background(), eng, f.pipe, f.plat, f.cm, o)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("workers=%d/%d: err %v, exact err %v", workers, engWorkers, err, refErr)
					}
					if err != nil {
						continue
					}
					if res.Mapping.String() != ref.Mapping.String() ||
						!res.Period.Equal(ref.Period) ||
						res.Proven != ref.Proven {
						t.Fatalf("workers=%d/%d: screened answer diverged:\n got %v %v proven=%v\nwant %v %v proven=%v",
							workers, engWorkers, res.Mapping, res.Period, res.Proven,
							ref.Mapping, ref.Period, ref.Proven)
					}
					if res.Stats.Nodes != ref.Stats.Nodes ||
						res.Stats.Leaves != ref.Stats.Leaves ||
						res.Stats.Pruned != ref.Stats.Pruned ||
						res.Stats.Infeasible != ref.Stats.Infeasible ||
						res.Stats.Frontier != ref.Stats.Frontier {
						t.Fatalf("workers=%d/%d: screened tree shape diverged:\n got %+v\nwant %+v",
							workers, engWorkers, res.Stats, ref.Stats)
					}
					if firstScreened < 0 {
						firstScreened = res.Stats.Screened
					} else if res.Stats.Screened != firstScreened {
						t.Fatalf("workers=%d/%d: Screened %d, want %d (must not depend on parallelism)",
							workers, engWorkers, res.Stats.Screened, firstScreened)
					}
					if res.Stats.Screened > res.Stats.Leaves {
						t.Fatalf("screened %d of only %d leaves", res.Stats.Screened, res.Stats.Leaves)
					}
				}
			}
			if firstScreened > 0 {
				totalScreened += firstScreened
			}
		})
	}
	if totalScreened == 0 {
		t.Fatal("no family screened a single leaf: the float tier never engaged")
	}
}

// TestScreeningWithWarmStartSkipsMostLeaves: warm-started with the proven
// optimum, the screen has its reference from the first leaf on, so on a
// well-conditioned family (periods separated by far more than the float
// error bound) nearly every leaf is screened and the result is still the
// incumbent, proven.
func TestScreeningWithWarmStartSkipsMostLeaves(t *testing.T) {
	fams := generatedFamilies(t, []int64{5})
	f := fams[0] // uniform overlap family: well-separated periods
	exactEng := engine.New(engine.Options{Workers: 2})
	first, err := Search(context.Background(), exactEng, f.pipe, f.plat, f.cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2, Backend: cycles.BackendFloatScreen})
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
	if warm.Stats.Leaves > 0 && warm.Stats.Screened == 0 {
		t.Fatalf("optimal warm start screened nothing across %d leaves", warm.Stats.Leaves)
	}
}
