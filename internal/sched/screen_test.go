package sched

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/model"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The batch heuristics pass their running best to the engine's exact
// cutoff, which the auto backend decides with potential checks and the
// Howard backend by a full evaluation. An engine configured by the
// deprecated "float-screen" alias of auto must return bit-identical results
// to a Howard engine: the cutoff only rules out candidates that cannot win,
// so the winner — including the first-stage and first-in-enumeration
// tie-breaks — never moves.

// floatScreenEngine builds an engine from the deprecated backend name.
func floatScreenEngine(t *testing.T) *engine.Engine {
	b, err := cycles.ParseBackend("float-screen")
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(engine.Options{Workers: 2, Backend: b})
}

func TestGreedyEngineFloatScreenBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		pipe, plat := testProblem(seed)
		for _, cm := range model.Models() {
			ref, refErr := GreedyEngine(context.Background(),
				engine.New(engine.Options{Workers: 2, Backend: cycles.BackendHoward}), pipe, plat, cm)
			got, gotErr := GreedyEngine(context.Background(), floatScreenEngine(t), pipe, plat, cm)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %v: err %v vs float-screen %v", seed, cm, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			if !got.Period.Equal(ref.Period) || got.Mapping.String() != ref.Mapping.String() {
				t.Fatalf("seed %d %v: float-screen greedy %v/%v, howard %v/%v",
					seed, cm, got.Period, got.Mapping, ref.Period, ref.Mapping)
			}
		}
	}
}

func TestExhaustiveEngineFloatScreenBitIdentical(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		pipe, plat := testProblem(seed)
		for _, cm := range model.Models() {
			ref, refErr := ExhaustiveOneToOneEngine(context.Background(),
				engine.New(engine.Options{Workers: 2, Backend: cycles.BackendHoward}), pipe, plat, cm)
			got, gotErr := ExhaustiveOneToOneEngine(context.Background(), floatScreenEngine(t), pipe, plat, cm)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %v: err %v vs float-screen %v", seed, cm, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			if !got.Period.Equal(ref.Period) || got.Mapping.String() != ref.Mapping.String() {
				t.Fatalf("seed %d %v: float-screen exhaustive %v/%v, howard %v/%v",
					seed, cm, got.Period, got.Mapping, ref.Period, ref.Mapping)
			}
		}
	}
}

// TestSequentialWalksIgnoreFloatScreen: the rng-coupled walks (random
// search, annealing) must visit the identical trajectory on an engine
// configured by the deprecated "float-screen" name as on an auto engine.
func TestSequentialWalksIgnoreFloatScreen(t *testing.T) {
	pipe, plat := testProblem(7)
	exact := engine.New(engine.Options{Workers: 2})
	screened := floatScreenEngine(t)

	refR, err := RandomSearchEngine(context.Background(), exact, pipe, plat, model.Overlap, newRng(3), 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := RandomSearchEngine(context.Background(), screened, pipe, plat, model.Overlap, newRng(3), 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !gotR.Period.Equal(refR.Period) || gotR.Mapping.String() != refR.Mapping.String() {
		t.Fatalf("random search diverged on a float-screen engine: %v/%v vs %v/%v",
			gotR.Period, gotR.Mapping, refR.Period, refR.Mapping)
	}

	refA, err := AnnealEngine(context.Background(), exact, pipe, plat, model.Overlap, newRng(4), AnnealOptions{Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := AnnealEngine(context.Background(), screened, pipe, plat, model.Overlap, newRng(4), AnnealOptions{Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !gotA.Period.Equal(refA.Period) || gotA.Mapping.String() != refA.Mapping.String() {
		t.Fatalf("annealing diverged on a float-screen engine: %v/%v vs %v/%v",
			gotA.Period, gotA.Mapping, refA.Period, refA.Mapping)
	}
}
