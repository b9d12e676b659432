package cycles

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// checkBoth runs RatioAtMostPlan at λ on the arithmetic the input selects
// and with the rational loops forced, fails unless the verdicts and errors
// agree, and returns the verdict and whether the first run took the int64
// path, and the error.
func checkBoth(t *testing.T, s *System, lambda rat.Rat) (bool, bool, error) {
	t.Helper()
	var ws, wr Workspace
	wr.forceRat = true
	got, err := ws.RatioAtMostPlan(ws.Compile(s), s, lambda)
	usedInt := ws.intMode
	want, werr := wr.RatioAtMostPlan(wr.Compile(s), s, lambda)
	if wr.intMode {
		t.Fatal("forced rational check took the int64 path")
	}
	if got != want || (err == nil) != (werr == nil) {
		t.Fatalf("λ %v: int64 path (%v) says %v (%v), rational says %v (%v)", lambda, usedInt, got, err, want, werr)
	}
	if err != nil && got {
		t.Fatalf("λ %v: check held with error %v", lambda, err)
	}
	return got, usedInt, err
}

// TestRatioAtMostPlanBracketsOptimum checks the potential check against
// Karp on random live systems (fractional costs, multi-token edges) and
// tie-heavy ones: it holds at λ* and above, fails just below λ*, and the
// int64 and rational paths agree.
func TestRatioAtMostPlanBracketsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eps := rat.New(1, 1_000_000_007)
	for trial := 0; trial < 400; trial++ {
		s := randomLiveSystem(rng, 2+rng.Intn(16))
		if trial%2 == 1 {
			s = tiedSystem(rng, 1+rng.Intn(8))
		}
		r, err := s.MaxRatio()
		if errors.Is(err, ErrNoCycle) {
			if ok, _, cerr := checkBoth(t, s, rat.FromInt(1000)); ok || !errors.Is(cerr, ErrNoCycle) {
				t.Fatalf("trial %d: acyclic system: check %v, err %v", trial, ok, cerr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		at, usedInt, _ := checkBoth(t, s, r.Ratio)
		if !at {
			t.Fatalf("trial %d: check fails at λ* = %v", trial, r.Ratio)
		}
		if !usedInt {
			t.Fatalf("trial %d: small costs took the rational path", trial)
		}
		if above, _, _ := checkBoth(t, s, r.Ratio.Add(eps)); !above {
			t.Fatalf("trial %d: check fails above λ* = %v", trial, r.Ratio)
		}
		if below, _, _ := checkBoth(t, s, r.Ratio.Sub(eps)); below {
			t.Fatalf("trial %d: check holds just below λ* = %v", trial, r.Ratio)
		}
	}
}

// TestRatioAtMostPlanMultiToken pins a ring whose only token edge carries
// three tokens (ratio 12/3) next to a one-token self loop: the check splits
// exactly at the larger of the two ratios.
func TestRatioAtMostPlanMultiToken(t *testing.T) {
	s := NewSystem(3)
	s.AddEdge(0, 1, rat.FromInt(5), 0)
	s.AddEdge(1, 2, rat.FromInt(4), 0)
	s.AddEdge(2, 0, rat.FromInt(3), 3)
	s.AddEdge(2, 2, rat.FromInt(6), 1) // ratio 6/1
	for _, tc := range []struct {
		lambda rat.Rat
		want   bool
	}{
		{rat.FromInt(6), true},
		{rat.New(11, 2), false},
		{rat.FromInt(7), true},
	} {
		if got, _, _ := checkBoth(t, s, tc.lambda); got != tc.want {
			t.Fatalf("λ %v: check %v, want %v", tc.lambda, got, tc.want)
		}
	}
	s.Cost[3] = rat.One() // now the three-token cycle decides: 12/3
	for _, tc := range []struct {
		lambda rat.Rat
		want   bool
	}{
		{rat.FromInt(4), true},
		{rat.New(3999, 1000), false},
	} {
		if got, _, _ := checkBoth(t, s, tc.lambda); got != tc.want {
			t.Fatalf("λ %v: check %v, want %v", tc.lambda, got, tc.want)
		}
	}
}

// TestRatioAtMostPlanErrorParity requires the check to fail, with
// MaxRatioPlan's error, wherever MaxRatioPlan fails: a negative cost, a
// zero-token cycle and an acyclic system.
func TestRatioAtMostPlanErrorParity(t *testing.T) {
	neg := ringWithCosts(rat.FromInt(3), rat.FromInt(-1))
	dead := NewSystem(2)
	dead.AddEdge(0, 1, rat.One(), 0)
	dead.AddEdge(1, 0, rat.One(), 0)
	dead.AddEdge(1, 1, rat.One(), 1)
	acyc := NewSystem(2)
	acyc.AddEdge(0, 1, rat.One(), 1)
	for name, s := range map[string]*System{"negative cost": neg, "deadlock": dead, "acyclic": acyc} {
		var ws Workspace
		p := ws.Compile(s)
		_, want := ws.MaxRatioPlan(p, s)
		if want == nil {
			t.Fatalf("%s: MaxRatioPlan succeeded", name)
		}
		for _, lambda := range []rat.Rat{rat.Zero(), rat.FromInt(1 << 40)} {
			ok, err := ws.RatioAtMostPlan(p, s, lambda)
			if ok || err == nil || err.Error() != want.Error() {
				t.Fatalf("%s at λ %v: check %v, err %v, want false and %v", name, lambda, ok, err, want)
			}
		}
	}
}

// TestRatioAtMostPlanOverflowGuard pins where the check leaves the int64
// path although scaleCosts admits the costs: a λ·scale whose numerator
// times the tokens passes 2^62, and one whose denominator times the cost
// sum does. Both run in rationals and keep the exact verdict.
func TestRatioAtMostPlanOverflowGuard(t *testing.T) {
	s := ringWithCosts(rat.FromInt(7), rat.FromInt(5)) // λ* = 12
	for _, tc := range []struct {
		name    string
		lambda  rat.Rat
		want    bool
		wantInt bool
	}{
		{"small", rat.FromInt(12), true, true},
		{"numerator past the guard", rat.FromInt(1<<62 + 1), true, false},
		{"denominator past the guard", rat.New(1<<60-1, 1<<58), false, false},
		{"negative", rat.FromInt(-1), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, usedInt, _ := checkBoth(t, s, tc.lambda)
			if got != tc.want || usedInt != tc.wantInt {
				t.Fatalf("check %v on int64 path %v, want %v on %v", got, usedInt, tc.want, tc.wantInt)
			}
		})
	}
}

// TestRatioAtMostPlanAllocationFree: on a warm workspace with a compacted
// plan, the check allocates nothing on the int64 path.
func TestRatioAtMostPlanAllocationFree(t *testing.T) {
	s := randomLiveSystem(rand.New(rand.NewSource(4)), 40)
	var ws Workspace
	p := ws.Compile(s).Compact()
	r, err := ws.MaxRatioPlan(p, s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if ok, err := ws.RatioAtMostPlan(p, s, r.Ratio); !ok || err != nil {
			t.Fatalf("check %v, %v at λ*", ok, err)
		}
	})
	if allocs != 0 || !ws.intMode {
		t.Fatalf("warm check: %v allocs/op, int64 path %v", allocs, ws.intMode)
	}
}
