package sched

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// The engine-routed heuristics must return the same mapping and period as
// the historical serial path: greedy's per-round batch keeps the serial
// tie-break (smallest period, first stage), the exhaustive batches keep
// "first best in enumeration order", and the sequential walks consume the
// identical rng stream.

func testProblem(seed int64) (*pipeline.Pipeline, *platform.Platform) {
	rng := rand.New(rand.NewSource(seed))
	pipe := pipeline.Random(rng, 3, 50, 500)
	plat := platform.Random(rng, 7, 5, 25, 20, 200)
	return pipe, plat
}

func TestGreedyEngineMatchesAtAnyWorkerCount(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pipe, plat := testProblem(seed)
		ref, err := GreedyEngine(context.Background(), engine.New(engine.Options{Workers: 1}), pipe, plat, model.Overlap)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := GreedyEngine(context.Background(), engine.New(engine.Options{Workers: workers}), pipe, plat, model.Overlap)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Period.Equal(ref.Period) {
				t.Fatalf("seed %d workers %d: period %v, want %v", seed, workers, got.Period, ref.Period)
			}
			if got.Mapping.String() != ref.Mapping.String() {
				t.Fatalf("seed %d workers %d: mapping %v, want %v", seed, workers, got.Mapping, ref.Mapping)
			}
		}
	}
}

func TestExhaustiveEngineMatchesAtAnyWorkerCount(t *testing.T) {
	pipe, plat := testProblem(5)
	ref, err := ExhaustiveOneToOneEngine(context.Background(), engine.New(engine.Options{Workers: 1}), pipe, plat, model.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExhaustiveOneToOneEngine(context.Background(), engine.New(engine.Options{Workers: 4}), pipe, plat, model.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Period.Equal(ref.Period) || got.Mapping.String() != ref.Mapping.String() {
		t.Fatalf("parallel exhaustive diverged: %v/%v vs %v/%v", got.Period, got.Mapping, ref.Period, ref.Mapping)
	}
}

func TestRandomSearchEngineIsRNGFaithful(t *testing.T) {
	pipe, plat := testProblem(8)
	a, err := RandomSearchEngine(context.Background(), engine.New(engine.Options{Workers: 1}), pipe, plat, model.Overlap,
		rand.New(rand.NewSource(42)), 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSearchEngine(context.Background(), engine.New(engine.Options{Workers: 4}), pipe, plat, model.Overlap,
		rand.New(rand.NewSource(42)), 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Period.Equal(b.Period) || a.Mapping.String() != b.Mapping.String() {
		t.Fatalf("identical rng streams diverged: %v/%v vs %v/%v", a.Period, a.Mapping, b.Period, b.Mapping)
	}
}

// TestBestOfEngineSharesCache checks that the heuristics of one best-of
// search reuse each other's work. Strict candidates share the engine memo;
// overlap walks price their candidates through the search's column
// evaluator instead, so on an overlap problem the reuse shows as column-memo
// hits.
func TestBestOfEngineSharesCache(t *testing.T) {
	pipe, plat := testProblem(9)
	eng := engine.New(engine.Options{})
	if _, err := BestOfEngine(context.Background(), eng, pipe, plat, model.Strict, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	hits, misses := eng.CacheStats()
	if misses == 0 {
		t.Fatal("no evaluations recorded")
	}
	if hits == 0 {
		t.Fatal("heuristics never reused a candidate: the shared memo cache is not wired in")
	}

	hits0, solves0 := columnHits.Load(), columnSolves.Load()
	if _, err := BestOfEngine(context.Background(), engine.New(engine.Options{}), pipe, plat, model.Overlap, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if columnSolves.Load() == solves0 {
		t.Fatal("no overlap column solved")
	}
	if columnHits.Load() == hits0 {
		t.Fatal("overlap walks never reused a column: the column memo is not wired in")
	}
}

func TestEngineSearchCancellation(t *testing.T) {
	pipe, plat := testProblem(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.Options{Workers: 2})
	if _, err := GreedyEngine(ctx, eng, pipe, plat, model.Overlap); err == nil {
		t.Fatal("canceled greedy search returned no error")
	}
	if _, err := RandomSearchEngine(ctx, eng, pipe, plat, model.Overlap, rand.New(rand.NewSource(1)), 3, 10); err == nil {
		t.Fatal("canceled random search returned no error")
	}
	if _, err := ExhaustiveOneToOneEngine(ctx, eng, pipe, plat, model.Overlap); err == nil {
		t.Fatal("canceled exhaustive search returned no error")
	}
}
