package cycles

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rat"
)

// TestIterationWitnessCertified runs cycle iteration on the systems
// TestIntPathMatchesRational and TestIntPathBoundary draw, through
// MaxRatio and through the Karp alias of MaxRatioBackend: every witness
// attains the ratio, VerifyRatio certifies the ratio, the ratio equals the
// Karp reference's, and a run forced to rationals returns the same ratio,
// the same witness and the same number of iterations.
func TestIterationWitnessCertified(t *testing.T) {
	systems := intPathSystems()
	for _, tc := range intPathBoundaryCases(t) {
		systems = append(systems, tc.s)
	}
	var ws, wr Workspace
	wr.forceRat = true
	for trial, s := range systems {
		karp, kerr := s.MaxRatioKarp()
		got, err := ws.MaxRatio(s)
		if (err == nil) != (kerr == nil) {
			t.Fatalf("trial %d: err %v, Karp reference %v", trial, err, kerr)
		}
		if err != nil {
			continue
		}
		iters := ws.Iterations()
		if !got.Ratio.Equal(karp) {
			t.Fatalf("trial %d: ratio %v, Karp reference %v", trial, got.Ratio, karp)
		}
		alias, err := ws.MaxRatioBackend(s, BackendKarp)
		if err != nil || !alias.Ratio.Equal(got.Ratio) || !slices.Equal(alias.Cycle, got.Cycle) {
			t.Fatalf("trial %d: karp alias %v %v (%v), MaxRatio %v %v", trial, alias.Ratio, alias.Cycle, err, got.Ratio, got.Cycle)
		}
		if cr, err := s.CycleRatio(got.Cycle); err != nil || !cr.Equal(got.Ratio) {
			t.Fatalf("trial %d: witness %v has ratio %v (%v), want %v", trial, got.Cycle, cr, err, got.Ratio)
		}
		if err := s.VerifyRatio(got.Ratio); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := wr.MaxRatio(s)
		if err != nil || want.Ratio.String() != got.Ratio.String() || !slices.Equal(want.Cycle, got.Cycle) || wr.Iterations() != iters {
			t.Fatalf("trial %d: rational run %v %v in %d iterations (%v), int64 run %v %v in %d",
				trial, want.Ratio, want.Cycle, wr.Iterations(), err, got.Ratio, got.Cycle, iters)
		}
	}
}

// TestIterationRestartsInRationals pins the two ways an iteration leaves
// the int64 path partway and must still agree with the Karp reference:
// an int64 check that runs out of rounds before closing a cycle restarts
// at the same λ in rationals (forced here by capping its rounds at one),
// and a later λ whose denominator breaks potentialScale's guard runs its
// check in rationals although the first one ran in int64.
func TestIterationRestartsInRationals(t *testing.T) {
	var ws, capped Workspace
	capped.intRounds = 1
	restarts := 0
	for trial, s := range intPathSystems() {
		want, err := ws.MaxRatio(s)
		if err != nil {
			continue
		}
		got, err := capped.MaxRatio(s)
		if err != nil || got.Ratio.String() != want.Ratio.String() || !slices.Equal(got.Cycle, want.Cycle) {
			t.Fatalf("trial %d: capped run %v %v (%v), uncapped %v %v", trial, got.Ratio, got.Cycle, err, want.Ratio, want.Cycle)
		}
		if karp, _ := s.MaxRatioKarp(); !got.Ratio.Equal(karp) {
			t.Fatalf("trial %d: capped run %v, Karp reference %v", trial, got.Ratio, karp)
		}
		restarts += capped.RatChecks()
	}
	if restarts == 0 {
		t.Fatal("no capped int64 check restarted in rationals")
	}

	// Two vertices, one zero-token edge and one seven-token edge, costs
	// summing to 2^59+1: at λ = 0 the guard (nt+1)·b·isum ≤ 2^62 holds with
	// b = 1, at λ* = (2^59+1)/7 it needs b = 7 and fails.
	s := NewSystem(2)
	s.AddEdge(0, 1, rat.FromInt(1<<59-4), 0)
	s.AddEdge(1, 0, rat.FromInt(5), 7)
	got, err := ws.MaxRatio(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := rat.New(1<<59+1, 7); !got.Ratio.Equal(want) || ws.Iterations() != 1 {
		t.Fatalf("ratio %v in %d iterations, want %v in 1", got.Ratio, ws.Iterations(), want)
	}
	if ws.UsedInt() || ws.RatChecks() != 1 {
		t.Fatalf("last check on int64 %v, %d checks in rationals; want the second check, only, in rationals", ws.UsedInt(), ws.RatChecks())
	}
	if karp, _ := s.MaxRatioKarp(); !got.Ratio.Equal(karp) {
		t.Fatalf("ratio %v, Karp reference %v", got.Ratio, karp)
	}
}

// TestMaxRatioBelowCuts checks the cutoff of the iteration on random live
// systems: a cutoff at λ* or below it ends in ErrRatioReached, one above
// returns λ*, and a cutoff below the first cycle found stops after that
// one iteration.
func TestMaxRatioBelowCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		s := randomLiveSystem(rng, 2+rng.Intn(12))
		p := ws.Compile(s).Compact()
		want, err := ws.MaxRatioFrom(p, s, rat.Zero())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws.MaxRatioBelow(p, s, rat.Zero(), want.Ratio); !errors.Is(err, ErrRatioReached) {
			t.Fatalf("trial %d: cutoff at λ* = %v: err %v", trial, want.Ratio, err)
		}
		above := want.Ratio.Add(rat.New(1, 1<<20))
		got, err := ws.MaxRatioBelow(p, s, rat.Zero(), above)
		if err != nil || !got.Ratio.Equal(want.Ratio) {
			t.Fatalf("trial %d: cutoff above λ* = %v: %v, %v", trial, want.Ratio, got.Ratio, err)
		}
		if _, err := ws.MaxRatioBelow(p, s, rat.Zero(), rat.New(1, 1<<20)); !errors.Is(err, ErrRatioReached) || ws.Iterations() != 1 {
			t.Fatalf("trial %d: tiny cutoff: err %v after %d iterations", trial, err, ws.Iterations())
		}
		// Started at λ*, the check holds at once: no iteration, no witness.
		at, err := ws.MaxRatioFrom(p, s, want.Ratio)
		if err != nil || !at.Ratio.Equal(want.Ratio) || at.Cycle != nil || ws.Iterations() != 0 {
			t.Fatalf("trial %d: start at λ*: %v %v after %d iterations (%v)", trial, at.Ratio, at.Cycle, ws.Iterations(), err)
		}
	}
}

// TestMaxRatioPlanAllocationFree: on a warm workspace with a compacted
// plan, cycle iteration from 0 allocates nothing, witness included.
func TestMaxRatioPlanAllocationFree(t *testing.T) {
	s := randomLiveSystem(rand.New(rand.NewSource(4)), 40)
	var ws Workspace
	p := ws.Compile(s).Compact()
	want, err := ws.MaxRatioPlan(p, s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if r, err := ws.MaxRatioPlan(p, s); err != nil || !r.Ratio.Equal(want.Ratio) {
			t.Fatalf("warm iteration: %v, %v", r.Ratio, err)
		}
	})
	if allocs != 0 || !ws.intMode || ws.Iterations() == 0 {
		t.Fatalf("warm iteration: %v allocs/op, int64 path %v, %d iterations", allocs, ws.intMode, ws.Iterations())
	}
}

// TestZeroRatioWitness: a system whose cycles all cost nothing holds the
// check at 0 at once, and MaxRatioPlan recovers its witness from the tight
// subgraph.
func TestZeroRatioWitness(t *testing.T) {
	s := ringWithCosts(rat.Zero(), rat.Zero(), rat.Zero())
	r, err := s.MaxRatio()
	if err != nil || r.Ratio.Sign() != 0 || len(r.Cycle) != 3 {
		t.Fatalf("zero-cost ring: %v %v (%v)", r.Ratio, r.Cycle, err)
	}
	if cr, err := s.CycleRatio(r.Cycle); err != nil || cr.Sign() != 0 {
		t.Fatalf("witness ratio %v (%v)", cr, err)
	}
}
