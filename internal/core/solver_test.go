package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// replicationFamilies are the structured replication-vector families the
// generated cross-check draws from, alongside fully random vectors: coprime
// pairs (the pattern graph is as large as a component gets), equal
// replication (components collapse to 1x1 patterns), nested divisors and
// three-stage mixes — each family stresses a different branch of the
// Theorem 1 decomposition.
var replicationFamilies = [][]int{
	{2, 3}, {3, 4}, {4, 5}, {5, 3},
	{2, 2}, {3, 3}, {4, 4},
	{2, 4}, {3, 6}, {2, 6},
	{2, 3, 2}, {2, 2, 3}, {3, 2, 4}, {1, 4, 2},
	{2, 3, 4}, {4, 3, 2},
}

// TestPolyMatchesTPNGeneratedFamilies extends the Example A/B/C cross-check
// to ~200 generated instances: on every one, the Theorem 1 polynomial
// algorithm and the unfolded-TPN critical cycle must agree exactly — one
// side computed by a single reused Solver, the other by the free-function
// path, so the test simultaneously pins solver-reuse correctness.
func TestPolyMatchesTPNGeneratedFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	solver := NewSolver()
	trials := 0
	check := func(inst *model.Instance) {
		t.Helper()
		trials++
		poly, err := solver.PeriodOverlapPoly(inst)
		if err != nil {
			t.Fatalf("trial %d (reps %v): poly: %v", trials, inst.ReplicationCounts(), err)
		}
		full, err := PeriodTPN(inst, model.Overlap)
		if err != nil {
			t.Fatalf("trial %d (reps %v): tpn: %v", trials, inst.ReplicationCounts(), err)
		}
		if !poly.Period.Equal(full.Period) {
			t.Fatalf("trial %d (reps %v): poly period %v != TPN period %v",
				trials, inst.ReplicationCounts(), poly.Period, full.Period)
		}
	}
	// 10 draws per structured family (160 instances)...
	for _, reps := range replicationFamilies {
		for k := 0; k < 10; k++ {
			check(randomInstanceWithReps(rng, reps, 1, 40))
		}
	}
	// ...plus 40 fully random instances.
	for k := 0; k < 40; k++ {
		check(randomInstance(rng, 2+rng.Intn(3), 4, 1, 40))
	}
	if trials < 200 {
		t.Fatalf("only %d trials, want >= 200", trials)
	}
}

// TestSolverMatchesFreeFunctions interleaves models and instances on one
// reused Solver and requires bit-identical results to the free functions:
// reuse must never leak state between evaluations.
func TestSolverMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	solver := NewSolver()
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(3), 3, 1, 30)
		for _, cm := range model.Models() {
			got, err := solver.Period(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Period(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d %v: solver %+v != free %+v", trial, cm, got, want)
			}
		}
	}
}

// TestSolverMaxRows exercises the configurable row cap: below the
// instance's path count the solver must refuse with ErrTooLarge carrying
// the configured cap, at or above it the computation must succeed.
func TestSolverMaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := randomInstanceWithReps(rng, []int{2, 3}, 1, 20) // m = 6
	s := NewSolver()
	s.MaxRows = 5
	_, err := s.PeriodTPN(inst, model.Strict)
	var tooLarge tpn.ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("cap 5 on m=6: got err %v, want ErrTooLarge", err)
	}
	if tooLarge.Rows != 6 || tooLarge.Cap != 5 {
		t.Fatalf("ErrTooLarge = %+v, want Rows 6 Cap 5", tooLarge)
	}
	s.MaxRows = 6
	got, err := s.PeriodTPN(inst, model.Strict)
	if err != nil {
		t.Fatalf("cap 6 on m=6: %v", err)
	}
	want, err := PeriodTPN(inst, model.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Period.Equal(want.Period) {
		t.Fatalf("capped solver period %v != default %v", got.Period, want.Period)
	}
}

// TestSolverReuseCutsAllocations is the acceptance gate of the
// zero-allocation refactor: a reused Solver must allocate at least 10x less
// per strict-model evaluation than a fresh solver context per call. The
// fresh-context baseline already benefits from the label-free builder and
// arena workspace, so the gate is conservative — the pre-refactor
// free-function path was another ~8x above it (see EXPERIMENTS.md).
func TestSolverReuseCutsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rng := rand.New(rand.NewSource(2009))
	inst := randomInstanceWithReps(rng, []int{4, 6}, 5, 15) // m = 12
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := NewSolver().PeriodTPN(inst, model.Strict); err != nil {
			t.Fatal(err)
		}
	})
	solver := NewSolver()
	if _, err := solver.PeriodTPN(inst, model.Strict); err != nil {
		t.Fatal(err) // warm up the scratch once
	}
	reused := testing.AllocsPerRun(50, func() {
		if _, err := solver.PeriodTPN(inst, model.Strict); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: fresh solver %.0f, reused solver %.0f", fresh, reused)
	if reused*10 > fresh {
		t.Fatalf("reused solver allocates %.0f/op vs fresh %.0f/op: less than 10x improvement", reused, fresh)
	}
}

// TestPlanCacheMatchesFreshSolver runs the exact PeriodTPN (its Karp
// route), with and without a cutoff, for many instances on one solver,
// whose plan cache then serves most of them from plans compiled for other
// instances of the same replication vector, and requires every period and
// every cutoff decision to equal, bit for bit, what a fresh solver computes
// by compiling the instance's own plan.
func TestPlanCacheMatchesFreshSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vectors := [][]int{{1, 2}, {2, 3, 1}, {3, 2, 3}, {2, 2, 2}, {4, 1, 3}}
	cached := NewSolver()
	cached.Backend = cycles.BackendKarp // small nets would route to Howard
	for trial := 0; trial < 120; trial++ {
		inst := randomInstanceWithReps(rng, vectors[rng.Intn(len(vectors))], 1, 200)
		for _, cm := range model.Models() {
			fresh := NewSolver()
			fresh.Backend = cycles.BackendKarp
			gotP, gerr := cached.PeriodTPN(inst, cm)
			wantP, werr := fresh.PeriodTPN(inst, cm)
			if gerr != nil || werr != nil {
				t.Fatalf("trial %d %v: exact errors %v / %v", trial, cm, gerr, werr)
			}
			if gotP.Period.String() != wantP.Period.String() || gotP.Period.IsBig() != wantP.Period.IsBig() ||
				!gotP.Mct.Equal(wantP.Mct) || gotP.PathCount != wantP.PathCount {
				t.Fatalf("trial %d %v: cached plan gives period %v, fresh solver %v", trial, cm, gotP.Period, wantP.Period)
			}
			// Cutoffs at the period, between Mct and the period (decided by
			// the potential at the cutoff when P > Mct) and above it.
			mct := wantP.Mct
			for _, ref := range []rat.Rat{wantP.Period, mct.Add(wantP.Period).DivInt(2), wantP.Period.Add(rat.One())} {
				c := cutoff{ref: ref, on: true}
				got, gerr := cached.periodTPN(inst, cm, mct, c)
				want, werr := fresh.periodTPN(inst, cm, mct, c)
				if gerr != werr || got.Period.String() != want.Period.String() {
					t.Fatalf("trial %d %v: cutoff %v: cached plan gives %v, %v; fresh solver %v, %v", trial, cm, ref, got.Period, gerr, want.Period, werr)
				}
				if (gerr == ErrCutoff) != !wantP.Period.Less(ref) {
					t.Fatalf("trial %d %v: cutoff %v on period %v: err %v", trial, cm, ref, wantP.Period, gerr)
				}
			}
		}
	}
	if n := len(cached.plans); n != 2*len(vectors) {
		t.Fatalf("plan cache holds %d plans, want one per model and vector (%d)", n, 2*len(vectors))
	}
}
