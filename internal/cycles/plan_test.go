package cycles

import (
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rat"
)

// maxRatioBoth runs MaxRatio on s twice, on the arithmetic the input
// selects and with the rational loops forced, and fails unless ratio and
// witness are bit-identical. It reports whether the first run took the
// scaled int64 path.
func maxRatioBoth(t *testing.T, s *System) (Result, bool) {
	t.Helper()
	var ws, wr Workspace
	wr.forceRat = true
	got, err := ws.MaxRatio(s)
	usedInt := ws.intMode
	want, werr := wr.MaxRatio(s)
	if wr.intMode {
		t.Fatal("forced rational run took the int64 path")
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("errors differ: %v vs rational %v", err, werr)
	}
	if err != nil {
		return Result{}, usedInt
	}
	if got.Ratio.String() != want.Ratio.String() || got.Ratio.IsBig() != want.Ratio.IsBig() {
		t.Fatalf("ratio %v (int64 path %v) vs rational %v", got.Ratio, usedInt, want.Ratio)
	}
	if !slices.Equal(got.Cycle, want.Cycle) {
		t.Fatalf("witness %v (int64 path %v) vs rational %v", got.Cycle, usedInt, want.Cycle)
	}
	return got, usedInt
}

// tiedSystem is a random live system whose costs are all 0 or 1, so many
// cycles share the maximum ratio and every tie-break of the engine shows in
// the witness.
func tiedSystem(rng *rand.Rand, n int) *System {
	s := NewSystem(n)
	for k := 0; k < 3*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		cost := rat.FromInt(int64(rng.Intn(2)))
		if u < v && rng.Intn(2) == 0 {
			s.AddEdge(u, v, cost, 0)
		} else {
			s.AddEdge(u, v, cost, 1)
		}
	}
	return s
}

// intPathSystems are the systems TestIntPathMatchesRational draws: random
// live systems with fractional costs and multi-token edges, alternating
// with tie-heavy ones.
func intPathSystems() []*System {
	rng := rand.New(rand.NewSource(15))
	out := make([]*System, 400)
	for trial := range out {
		out[trial] = randomLiveSystem(rng, 2+rng.Intn(16))
		if trial%2 == 1 {
			out[trial] = tiedSystem(rng, 1+rng.Intn(8))
		}
	}
	return out
}

// TestIntPathMatchesRational checks the scaled int64 kernel against the
// rational loops on intPathSystems: same ratio, same witness, and the
// int64 path actually taken.
func TestIntPathMatchesRational(t *testing.T) {
	for trial, s := range intPathSystems() {
		r, usedInt := maxRatioBoth(t, s)
		if r.Cycle == nil {
			continue // acyclic draw: both arithmetics reported ErrNoCycle
		}
		if !usedInt {
			t.Fatalf("trial %d: small costs took the rational path", trial)
		}
		if got, err := s.CycleRatio(r.Cycle); err != nil || !got.Equal(r.Ratio) {
			t.Fatalf("trial %d: witness ratio %v (%v) != %v", trial, got, err, r.Ratio)
		}
	}
}

// ringWithCosts is a ring whose last edge carries the one token.
func ringWithCosts(costs ...rat.Rat) *System {
	n := len(costs)
	s := NewSystem(n)
	for i, c := range costs {
		tok := 0
		if i == n-1 {
			tok = 1
		}
		s.AddEdge(i, (i+1)%n, c, tok)
	}
	return s
}

// boundaryCase is a system on one side of the int64 path's bounds.
type boundaryCase struct {
	name    string
	s       *System
	wantInt bool
}

// intPathBoundaryCases are the systems TestIntPathBoundary pins: an lcm of
// the cost denominators that just fits int64 and one just past it, a
// scaled cost sum exactly at the bound and one just over, and big-rational
// costs.
func intPathBoundaryCases(t *testing.T) []boundaryCase {
	const a = 3037000499 // a·(a+1) < 2^63 − 1 < a·(a+8); both pairs coprime
	big30, _ := new(big.Int).SetString("1000000000000000000000000000000", 10)
	bigCost, err := rat.Parse(new(big.Rat).SetFrac(big30, big.NewInt(7)).String())
	if err != nil {
		t.Fatal(err)
	}
	return []boundaryCase{
		{"lcm fits int64", ringWithCosts(rat.New(1, a), rat.New(1, a+1), rat.Zero()), true},
		{"lcm past int64", ringWithCosts(rat.New(1, a), rat.New(1, a+8), rat.Zero()), false},
		// One token edge, so the guard (nt+1)·isum ≤ 2^62 reads C ≤ 2^61.
		{"sum at bound", ringWithCosts(rat.FromInt(1<<61-5), rat.FromInt(2), rat.FromInt(3)), true},
		{"sum over bound", ringWithCosts(rat.FromInt(1<<61-5), rat.FromInt(3), rat.FromInt(3)), false},
		{"sum at bound fractional", ringWithCosts(rat.New(1<<61-1, 2), rat.New(1, 2)), true},
		{"sum over bound fractional", ringWithCosts(rat.New(1<<61-1, 2), rat.New(3, 2)), false},
		{"big rational", ringWithCosts(bigCost, rat.FromInt(1), rat.New(1, 3)), false},
	}
}

// TestIntPathBoundary pins where the int64 path stops on the systems of
// intPathBoundaryCases. Every case agrees with the rational loops and with
// Howard.
func TestIntPathBoundary(t *testing.T) {
	for _, tc := range intPathBoundaryCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r, usedInt := maxRatioBoth(t, tc.s)
			if usedInt != tc.wantInt {
				t.Fatalf("int64 path %v, want %v", usedInt, tc.wantInt)
			}
			how, err := tc.s.MaxRatioHoward()
			if err != nil {
				t.Fatal(err)
			}
			if !how.Ratio.Equal(r.Ratio) {
				t.Fatalf("cycle iteration %v != howard %v", r.Ratio, how.Ratio)
			}
		})
	}
}

// TestPlanReuse evaluates a plan compiled from one system on siblings with
// the same edges and tokens but other costs, with the workspace's scratch
// clobbered in between, through both exact sweeps that read a plan and the
// potential check: the sweeps on scaled int64 costs and in rationals must
// return what a fresh MaxRatio of the sibling returns, ratio and witness
// bit for bit, and the check must hold at that ratio and fail a hair below
// it. Structural errors must carry over.
func TestPlanReuse(t *testing.T) {
	var ws Workspace
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomLiveSystem(rng, 2+rng.Intn(10))
		plan := ws.Compile(s).Compact()
		if plan.Size() <= 0 {
			t.Fatalf("seed %d: compiled plan reports size %d", seed, plan.Size())
		}
		for sibling := 0; sibling < 2; sibling++ {
			sib := NewSystem(s.G.N)
			for i, e := range s.G.Edges {
				sib.AddEdge(e.From, e.To, rat.New(int64(rng.Intn(50)), int64(1+rng.Intn(7))), s.Tokens[i])
			}
			if _, err := ws.MaxRatio(randomLiveSystem(rng, 3+rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
			want, werr := sib.MaxRatio()
			for _, forceRat := range []bool{false, true} {
				ws.forceRat = forceRat
				got, gerr := ws.MaxRatioPlan(plan, sib)
				ws.forceRat = false
				if ws.intMode == forceRat && gerr == nil {
					t.Fatalf("seed %d: forced rational %v, yet int64 path %v", seed, forceRat, ws.intMode)
				}
				if (gerr == nil) != (werr == nil) || got.Ratio.String() != want.Ratio.String() ||
					got.Ratio.IsBig() != want.Ratio.IsBig() || !slices.Equal(got.Cycle, want.Cycle) {
					t.Fatalf("seed %d (rational %v): plan gives %v %v (%v), fresh MaxRatio %v %v (%v)",
						seed, forceRat, got.Ratio, got.Cycle, gerr, want.Ratio, want.Cycle, werr)
				}
			}
			if werr != nil {
				continue
			}
			below := want.Ratio.Sub(rat.New(1, 1<<40))
			if ok, err := ws.RatioAtMostPlan(plan, sib, want.Ratio); !ok || err != nil {
				t.Fatalf("seed %d: check at the ratio %v: %v, %v", seed, want.Ratio, ok, err)
			}
			if ok, err := ws.RatioAtMostPlan(plan, sib, below); ok || err != nil {
				t.Fatalf("seed %d: check below the ratio %v: %v, %v", seed, want.Ratio, ok, err)
			}
		}
	}

	deadlock := NewSystem(2)
	deadlock.AddEdge(0, 1, rat.One(), 0)
	deadlock.AddEdge(1, 0, rat.One(), 0)
	plan := ws.Compile(deadlock)
	if _, err := ws.MaxRatioPlan(plan, deadlock); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked plan, exact sweep: err = %v, want ErrDeadlock", err)
	}
	negative := NewSystem(2)
	negative.AddEdge(0, 1, rat.FromInt(-1), 0)
	negative.AddEdge(1, 0, rat.One(), 1)
	plan = ws.Compile(negative)
	if _, err := ws.MaxRatioPlan(plan, negative); err == nil {
		t.Fatal("negative cost accepted by an exact plan evaluation")
	}
}
