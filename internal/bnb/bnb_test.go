package bnb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// bruteForceBest enumerates EVERY replicated mapping of the search space —
// all ordered assignments of disjoint non-empty processor sets to stages,
// ascending-id round-robin order, no symmetry breaking, no bounding — and
// returns the minimal period. It is the independent ground truth the branch
// and bound is tested against.
func bruteForceBest(t *testing.T, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel) (rat.Rat, *mapping.Mapping) {
	t.Helper()
	n := pipe.NumStages()
	p := plat.NumProcs()
	if p > 16 {
		t.Fatalf("brute force limited to 16 processors (got %d)", p)
	}
	var (
		bestPeriod rat.Rat
		bestMapp   *mapping.Mapping
	)
	assign := make([]uint, n)
	var rec func(stage int, free uint)
	rec = func(stage int, free uint) {
		if stage == n {
			reps := make([][]int, n)
			for i, mask := range assign {
				for u := 0; u < p; u++ {
					if mask&(1<<u) != 0 {
						reps[i] = append(reps[i], u)
					}
				}
			}
			mapp, err := mapping.New(reps, p)
			if err != nil {
				t.Fatalf("enumerator produced invalid mapping: %v", err)
			}
			inst, err := model.FromMapped(pipe, plat, mapp)
			if err != nil {
				return // missing link: infeasible, skip
			}
			res, err := core.Period(inst, cm)
			if err != nil {
				return
			}
			if bestMapp == nil || res.Period.Less(bestPeriod) {
				bestPeriod, bestMapp = res.Period, mapp
			}
			return
		}
		// Every non-empty subset of the free processors.
		for s := free; s != 0; s = (s - 1) & free {
			assign[stage] = s
			rec(stage+1, free&^s)
		}
	}
	rec(0, (1<<p)-1)
	return bestPeriod, bestMapp
}

// family is one generated problem.
type family struct {
	name string
	pipe *pipeline.Pipeline
	plat *platform.Platform
	cm   model.CommModel
}

// generatedFamilies draws small instances across the platform shapes that
// stress different parts of the search: full symmetry (uniform), none
// (heterogeneous), partial (equal-speed runs), and sparsity (missing links).
func generatedFamilies(t *testing.T, seeds []int64) []family {
	t.Helper()
	var out []family
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		add := func(kind string, n int, plat *platform.Platform, cm model.CommModel) {
			out = append(out, family{
				name: fmt.Sprintf("%s/seed=%d/n=%d/p=%d/%s", kind, seed, n, plat.NumProcs(), cm),
				pipe: pipeline.Random(rng, n, 50, 500),
				plat: plat,
				cm:   cm,
			})
		}
		add("uniform", 3, platform.Uniform(6, 10+seed, 100), model.Overlap)
		add("uniform", 2, platform.Uniform(4, 10, 50+10*seed), model.Strict)
		add("het", 3, platform.Random(rng, 5, 5, 25, 20, 200), model.Overlap)
		add("het", 2, platform.Random(rng, 4, 5, 25, 20, 200), model.Strict)
		// Partial symmetry: two equal-speed runs and a singleton on a
		// uniform interconnect.
		mixed, err := platform.New(
			[]int64{20, 20, 10 + seed, 10 + seed, 5},
			platform.Uniform(5, 1, 80).Bandwidths,
		)
		if err != nil {
			t.Fatal(err)
		}
		add("mixed", 3, mixed, model.Overlap)
		// Sparse: drop ~1/3 of the links of a heterogeneous platform.
		sparse := func() *platform.Platform {
			sp := platform.Random(rng, 5, 5, 25, 20, 200)
			for u := range sp.Bandwidths {
				for v := range sp.Bandwidths[u] {
					if u != v && rng.Intn(3) == 0 {
						sp.Bandwidths[u][v] = 0
					}
				}
			}
			return sp
		}
		add("sparse", 3, sparse(), model.Overlap)
		// Three strict stages, so the cycle-time bound also cuts above the
		// leaves, once on a complete interconnect and once on a sparse one.
		add("het", 3, platform.Random(rng, 5, 5, 25, 20, 200), model.Strict)
		add("sparse", 3, sparse(), model.Strict)
	}
	return out
}

// TestSearchMatchesBruteForceOnGeneratedFamilies is the acceptance bar for
// exactness: on every family small enough to enumerate outright, the branch
// and bound must prove the same optimal period the brute force finds, and
// its reported mapping must actually achieve that period.
func TestSearchMatchesBruteForceOnGeneratedFamilies(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, f := range generatedFamilies(t, seeds) {
		t.Run(f.name, func(t *testing.T) {
			wantPeriod, wantMapp := bruteForceBest(t, f.pipe, f.plat, f.cm)
			eng := engine.New(engine.Options{Workers: 4})
			res, err := Search(context.Background(), eng, f.pipe, f.plat, f.cm,
				Options{Workers: 3, FrontierTarget: 8})
			if wantMapp == nil {
				if err == nil {
					t.Fatalf("no feasible mapping exists but Search returned %v", res.Mapping)
				}
				return
			}
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if !res.Proven {
				t.Fatal("undeadlined Search did not prove its answer")
			}
			if !res.Period.Equal(wantPeriod) {
				t.Fatalf("Search period %v, brute force %v (mapping %v vs %v)",
					res.Period, wantPeriod, res.Mapping, wantMapp)
			}
			// The mapping must be real: recompute its period independently.
			inst, err := model.FromMapped(f.pipe, f.plat, res.Mapping)
			if err != nil {
				t.Fatalf("reported mapping unusable: %v", err)
			}
			check, err := core.Period(inst, f.cm)
			if err != nil {
				t.Fatal(err)
			}
			if !check.Period.Equal(res.Period) {
				t.Fatalf("reported period %v but mapping evaluates to %v", res.Period, check.Period)
			}
			if res.Stats.Nodes == 0 || res.Stats.Leaves+res.Stats.Pruned == 0 {
				t.Fatalf("implausible stats: %+v", res.Stats)
			}
		})
	}
}

// TestSearchBitIdenticalAcrossWorkerCounts pins the Bobpp-style determinism
// claim: with a fixed FrontierTarget, the mapping, period, proven
// flag AND the node counts are identical at any worker count — for the
// search workers and for the engine pool alike.
func TestSearchBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, f := range generatedFamilies(t, []int64{5, 6}) {
		t.Run(f.name, func(t *testing.T) {
			opts := Options{FrontierTarget: 16}
			var ref Result
			var refErr error
			first := true
			for _, workers := range []int{1, 2, 7} {
				for _, engWorkers := range []int{1, 4} {
					eng := engine.New(engine.Options{Workers: engWorkers})
					o := opts
					o.Workers = workers
					res, err := Search(context.Background(), eng, f.pipe, f.plat, f.cm, o)
					if first {
						ref, refErr, first = res, err, false
						continue
					}
					if (err == nil) != (refErr == nil) {
						t.Fatalf("workers=%d/%d: err %v, reference err %v", workers, engWorkers, err, refErr)
					}
					if err != nil {
						continue
					}
					if res.Mapping.String() != ref.Mapping.String() ||
						!res.Period.Equal(ref.Period) ||
						res.Proven != ref.Proven ||
						res.Stats != ref.Stats {
						t.Fatalf("workers=%d/%d diverged:\n got %v %v proven=%v %+v\nwant %v %v proven=%v %+v",
							workers, engWorkers,
							res.Mapping, res.Period, res.Proven, res.Stats,
							ref.Mapping, ref.Period, ref.Proven, ref.Stats)
					}
				}
			}
		})
	}
}

// TestSearchWarmStartTiesGoToIncumbent: handing the proven optimum back in
// as the warm start must prune aggressively and return the warm mapping
// itself (ties go to the incumbent), still proven.
func TestSearchWarmStartTiesGoToIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pipe := pipeline.Random(rng, 3, 50, 500)
	plat := platform.Random(rng, 6, 5, 25, 20, 200)
	eng := engine.New(engine.Options{Workers: 4})
	first, err := Search(context.Background(), eng, pipe, plat, model.Overlap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Search(context.Background(), eng, pipe, plat, model.Overlap, Options{
		Incumbent:       first.Mapping,
		IncumbentPeriod: first.Period,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Proven || !warm.Period.Equal(first.Period) {
		t.Fatalf("warm-started search: proven=%v period=%v, want proven with %v", warm.Proven, warm.Period, first.Period)
	}
	if warm.Mapping.String() != first.Mapping.String() {
		t.Fatalf("tie did not go to the incumbent: %v vs %v", warm.Mapping, first.Mapping)
	}
	if warm.Stats.Pruned == 0 {
		t.Fatalf("an optimal incumbent pruned nothing: %+v", warm.Stats)
	}
	if warm.Stats.Leaves >= first.Stats.Leaves && first.Stats.Leaves > 0 {
		t.Fatalf("warm start did not reduce leaf evaluations: %d vs %d", warm.Stats.Leaves, first.Stats.Leaves)
	}
}

// TestSearchAnytimeUnderDeadline: on a space far too large to exhaust, an
// expiring context must hand back the warm incumbent promptly with Proven
// false — and a context canceled with no incumbent at all is an error.
func TestSearchAnytimeUnderDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pipe := pipeline.Random(rng, 4, 50, 500)
	plat := platform.Random(rng, 12, 5, 25, 20, 200)
	reps := make([][]int, 4)
	for i := range reps {
		reps[i] = []int{i}
	}
	warmMapp := mapping.MustNew(reps, plat.NumProcs())
	inst, err := model.FromMapped(pipe, plat, warmMapp)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := core.Period(inst, model.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Search(ctx, eng, pipe, plat, model.Overlap, Options{
		Workers:         2,
		Incumbent:       warmMapp,
		IncumbentPeriod: warmRes.Period,
	})
	if err != nil {
		t.Fatalf("anytime search errored with a warm incumbent: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored: took %v", elapsed)
	}
	if res.Proven {
		t.Fatal("a 30 ms deadline cannot prove a 12-processor space")
	}
	if res.Mapping == nil || res.Period.Sign() <= 0 {
		t.Fatalf("anytime result unusable: %+v", res)
	}
	if warmRes.Period.Less(res.Period) {
		t.Fatalf("result %v is worse than the warm start %v", res.Period, warmRes.Period)
	}

	// Pre-canceled, no incumbent: a structured error, not a panic.
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Search(canceled, eng, pipe, plat, model.Overlap, Options{}); err == nil {
		t.Fatal("pre-canceled context without incumbent returned no error")
	}
}

// TestSearchErrors covers the argument guards.
func TestSearchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pipe := pipeline.Random(rng, 5, 50, 500)
	plat := platform.Uniform(3, 10, 100)
	eng := engine.New(engine.Options{})
	if _, err := Search(context.Background(), eng, pipe, plat, model.Overlap, Options{}); err == nil {
		t.Fatal("5 stages on 3 processors accepted")
	}
	// A platform with no links at all: every multi-stage mapping is
	// infeasible — structured error, not a panic.
	dark, err := platform.New([]int64{10, 10, 10}, [][]int64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pipe2 := pipeline.Random(rng, 2, 50, 500)
	if _, err := Search(context.Background(), eng, pipe2, dark, model.Overlap, Options{}); err == nil {
		t.Fatal("linkless platform produced a mapping")
	}
}

// TestClassesOf pins the symmetry detector: maximal consecutive runs of
// interchangeable processors, ordered fastest first.
func TestClassesOf(t *testing.T) {
	// Uniform: one class holding everyone.
	cl := classesOf(platform.Uniform(5, 10, 100))
	if len(cl) != 1 || len(cl[0].members) != 5 {
		t.Fatalf("uniform platform classes = %+v", cl)
	}
	// Equal-speed runs on a uniform interconnect split by id runs, sorted by
	// speed: {3,4} (speed 20) before {0,1} (10) before {2} (5).
	plat, err := platform.New([]int64{10, 10, 5, 20, 20}, platform.Uniform(5, 1, 100).Bandwidths)
	if err != nil {
		t.Fatal(err)
	}
	cl = classesOf(plat)
	want := [][]int{{3, 4}, {0, 1}, {2}}
	if len(cl) != len(want) {
		t.Fatalf("classes = %+v", cl)
	}
	for i := range want {
		if len(cl[i].members) != len(want[i]) || cl[i].members[0] != want[i][0] {
			t.Fatalf("class %d = %+v, want members %v", i, cl[i], want[i])
		}
	}
	// Equal speeds but asymmetric bandwidth: NOT interchangeable.
	asym := platform.Uniform(3, 10, 100)
	asym.Bandwidths[0][2] = 7
	cl = classesOf(asym)
	if len(cl) != 3 {
		t.Fatalf("asymmetric-bandwidth processors merged: %+v", cl)
	}
	// A fully exchangeable pair separated by a different processor: the
	// consecutive-id restriction keeps them apart (exactness over reduction).
	gap, err := platform.New([]int64{10, 5, 10}, platform.Uniform(3, 1, 100).Bandwidths)
	if err != nil {
		t.Fatal(err)
	}
	if cl = classesOf(gap); len(cl) != 3 {
		t.Fatalf("non-consecutive equal processors merged: %+v", cl)
	}
}
