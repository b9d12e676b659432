package cycles

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

// TestFloatEnclosureContainsExact is the kernel-level soundness property of
// the screening tier: on random live systems the float sweep's enclosure
// always contains the exact ratio, and its point estimate is the kind of
// tight (a few ulps) that makes screening worth having.
func TestFloatEnclosureContainsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomLiveSystem(rng, 3+rng.Intn(6))
		exact, err := s.MaxRatio()
		if err != nil {
			return true // structural failure: parity is asserted separately
		}
		var ws Workspace
		fr, ferr := ws.ApproxMaxRatio(s)
		if ferr != nil {
			t.Logf("seed %d: approx errored (%v) where exact succeeded", seed, ferr)
			return false
		}
		if !fr.Contains(exact.Ratio) {
			t.Logf("seed %d: enclosure [%g ± %g] misses exact %v (%g)",
				seed, fr.Ratio, fr.Err, exact.Ratio, exact.Ratio.Float64())
			return false
		}
		if !fr.Finite() {
			t.Logf("seed %d: poisoned result on a benign system", seed)
			return false
		}
		// Tightness sanity: on these well-scaled inputs the bound must stay
		// tiny relative to the value — a bound that balloons would make every
		// candidate ambiguous and the screen useless.
		if fr.Err > 1e-9*(1+math.Abs(fr.Ratio)) {
			t.Logf("seed %d: bound %g implausibly loose for ratio %g", seed, fr.Err, fr.Ratio)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFloatErrorParity: the float sweep must report structural failures
// exactly when the exact engines do, so a screened caller never diverges on
// the error path.
func TestFloatErrorParity(t *testing.T) {
	var ws Workspace

	acyclic := NewSystem(3)
	acyclic.AddEdge(0, 1, rat.One(), 0)
	acyclic.AddEdge(1, 2, rat.One(), 1)
	if _, err := ws.ApproxMaxRatio(acyclic); !errors.Is(err, ErrNoCycle) {
		t.Errorf("acyclic: got %v, want ErrNoCycle", err)
	}

	dead := NewSystem(2)
	dead.AddEdge(0, 1, rat.One(), 0)
	dead.AddEdge(1, 0, rat.One(), 0)
	if _, err := ws.ApproxMaxRatio(dead); !errors.Is(err, ErrDeadlock) {
		t.Errorf("deadlock: got %v, want ErrDeadlock", err)
	}

	neg := NewSystem(1)
	neg.AddEdge(0, 0, rat.FromInt(-1), 1)
	if _, err := ws.ApproxMaxRatio(neg); err == nil {
		t.Error("negative cost: approx accepted what exact rejects")
	}

	// Exhaustive parity on random systems, including ones the generators
	// above cannot produce.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomLiveSystem(rng, 3+rng.Intn(6))
		_, exactErr := s.MaxRatio()
		_, approxErr := ws.ApproxMaxRatio(s)
		return (exactErr == nil) == (approxErr == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// powRat returns base^exp as an exact rational (exp >= 0).
func powRat(base rat.Rat, exp int) rat.Rat {
	x := rat.One()
	for i := 0; i < exp; i++ {
		x = x.Mul(base)
	}
	return x
}

// TestFloatPoisonOnOverflowScale: costs beyond float64 range must poison the
// enclosure (Err=+Inf) — never return a finite bound that silently excludes
// the exact value — and the poisoned result must refuse to screen anything.
func TestFloatPoisonOnOverflowScale(t *testing.T) {
	huge := powRat(rat.FromInt(10), 400) // 10^400 > max float64
	s := NewSystem(2)
	s.AddEdge(0, 1, huge, 1)
	s.AddEdge(1, 0, rat.One(), 0)

	exact, err := s.MaxRatio()
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	var ws Workspace
	fr, err := ws.ApproxMaxRatio(s)
	if err != nil {
		t.Fatalf("approx: %v", err)
	}
	if fr.Finite() {
		t.Fatalf("overflow-scale system returned finite enclosure [%g ± %g]", fr.Ratio, fr.Err)
	}
	if !fr.Contains(exact.Ratio) {
		t.Error("poisoned enclosure must vacuously contain the exact ratio")
	}
	if fr.AtLeast(rat.Zero()) {
		t.Error("poisoned enclosure must never certify a screening decision")
	}
	if _, _, ok := fr.Enclosure(); ok {
		t.Error("poisoned enclosure must not produce rational endpoints")
	}
}

// TestFloatDenormalScale: costs down in the denormal range (where relative
// error bounds break down and only the additive eta term saves the
// analysis) must still produce a containing enclosure.
func TestFloatDenormalScale(t *testing.T) {
	tiny := powRat(rat.New(1, 10), 322) // 10^-322: a float64 denormal
	tinier := powRat(rat.New(1, 10), 323)
	s := NewSystem(3)
	s.AddEdge(0, 1, tiny, 0)
	s.AddEdge(1, 2, tinier, 0)
	s.AddEdge(2, 0, tiny, 1)
	s.AddEdge(1, 0, tinier, 1) // second cycle, near-tied at denormal scale

	exact, err := s.MaxRatio()
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	var ws Workspace
	fr, err := ws.ApproxMaxRatio(s)
	if err != nil {
		t.Fatalf("approx: %v", err)
	}
	if !fr.Contains(exact.Ratio) {
		t.Errorf("denormal enclosure [%g ± %g] misses exact %v", fr.Ratio, fr.Err, exact.Ratio)
	}
}

// TestFloatResultPredicates pins the semantics the screening layers build on.
func TestFloatResultPredicates(t *testing.T) {
	r := FloatOf(rat.New(1, 3))
	if !r.Contains(rat.New(1, 3)) {
		t.Error("FloatOf(1/3) must contain 1/3")
	}
	if r.Contains(rat.New(1, 2)) {
		t.Error("FloatOf(1/3) must not contain 1/2")
	}
	if !r.AtLeast(rat.New(1, 4)) {
		t.Error("1/3 is certainly >= 1/4")
	}
	if r.AtLeast(rat.New(1, 3)) {
		t.Error("AtLeast(1/3) must fail: the value itself is inside the enclosure")
	}
	lo, hi, ok := r.Enclosure()
	if !ok || !lo.Less(rat.New(1, 3)) || !rat.New(1, 3).Less(hi) {
		t.Errorf("enclosure [%v, %v] does not strictly bracket 1/3", lo, hi)
	}

	half := r.DivInt(3) // (1/3)/3 = 1/9
	if !half.Contains(rat.New(1, 9)) {
		t.Error("DivInt(3) enclosure must contain 1/9")
	}
	if bad := r.DivInt(0); bad.Finite() {
		t.Error("DivInt(0) must poison")
	}

	m := MaxFloat(FloatOf(rat.FromInt(2)), FloatOf(rat.FromInt(5)))
	if !m.Contains(rat.FromInt(5)) || m.Contains(rat.FromInt(2)) {
		t.Error("MaxFloat must enclose the max, not the min")
	}
	p := MaxFloat(FloatOf(rat.FromInt(2)), poisoned())
	if p.Finite() || p.AtLeast(rat.Zero()) {
		t.Error("MaxFloat with a poisoned operand must stay poisoned")
	}
	p2 := MaxFloat(poisoned(), FloatOf(rat.FromInt(2)))
	if p2.Finite() || p2.AtLeast(rat.Zero()) {
		t.Error("MaxFloat poisoned-first must stay poisoned")
	}
}

// TestFromFloatExact: the rational conversion underlying every screening
// comparison is exact.
func TestFromFloatExact(t *testing.T) {
	x, ok := rat.FromFloat(0.1)
	if !ok {
		t.Fatal("FromFloat(0.1) failed")
	}
	// 0.1 rounds to 3602879701896397 / 2^55 — the exact value of the float,
	// not the decimal it came from.
	want := rat.New(3602879701896397, 1).Div(powRat(rat.FromInt(2), 55))
	if !x.Equal(want) {
		t.Errorf("FromFloat(0.1) = %v, want %v", x, want)
	}
	if x.Equal(rat.New(1, 10)) {
		t.Error("FromFloat(0.1) must not equal 1/10: the conversion is of the float, not the decimal")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := rat.FromFloat(f); ok {
			t.Errorf("FromFloat(%v) must report !ok", f)
		}
	}
	if y, ok := rat.FromFloat(-2.5); !ok || !y.Equal(rat.New(-5, 2)) {
		t.Errorf("FromFloat(-2.5) = %v, %v", y, ok)
	}
}

// TestFloatScreenBackendResolvesExact: the float-screen backend's exact
// computations route exactly like auto, so anything evaluated through
// MaxRatioBackend is bit-identical across auto and float-screen.
func TestFloatScreenBackendResolvesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var wsA, wsF Workspace
	for trial := 0; trial < 50; trial++ {
		s := randomLiveSystem(rng, 3+rng.Intn(6))
		a, errA := wsA.MaxRatioBackend(s, BackendAuto)
		f, errF := wsF.MaxRatioBackend(s, BackendFloatScreen)
		if (errA == nil) != (errF == nil) {
			t.Fatalf("trial %d: error divergence auto=%v float-screen=%v", trial, errA, errF)
		}
		if errA != nil {
			continue
		}
		if !a.Ratio.Equal(f.Ratio) {
			t.Fatalf("trial %d: auto %v != float-screen %v", trial, a.Ratio, f.Ratio)
		}
	}
}

// TestAtLeastMatchesExactEndpoint checks AtLeast's float decision against
// the exact lower endpoint on random enclosures, many of them near ties
// with x (Ratio − Err within a few ulps of x) or straddling zero, and that
// a clear decision does not allocate.
func TestAtLeastMatchesExactEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		x := rat.New(rng.Int63n(1<<40)-1<<38, rng.Int63n(1<<30)+1)
		if i%5 == 0 {
			x = rat.New(rng.Int63()-1<<62, rng.Int63()+1) // beyond 2^53: Float64 rounds three times
		}
		xf := x.Float64()
		err := math.Abs(xf) * math.Ldexp(rng.Float64(), -rng.Intn(60))
		ratio := xf + err
		switch i % 4 {
		case 0: // near tie: nudge the lower endpoint by a few ulps
			ratio = math.Nextafter(ratio, math.Inf(rng.Intn(2)*2-1))
		case 1:
			ratio = xf + err*(rng.Float64()*4-2)
		case 2:
			ratio = rng.NormFloat64() * math.Abs(xf)
		}
		r := FloatResult{Ratio: ratio, Err: err}
		lo, _, ok := r.Enclosure()
		if want := ok && !lo.Less(x); r.AtLeast(x) != want {
			t.Fatalf("FloatResult{%v, %v}.AtLeast(%v) = %v, exact endpoint says %v", ratio, err, x, !want, want)
		}
	}
	r, x := FloatResult{Ratio: 7.9, Err: 1e-14}, rat.New(47, 6)
	if n := testing.AllocsPerRun(100, func() { _ = r.AtLeast(x) }); n != 0 {
		t.Errorf("AtLeast with a clear gap: %v allocs/op, want 0", n)
	}
}

// TestFloatPlanReuse evaluates a plan compiled from one system on
// siblings with the same edges and tokens but other costs, with the
// workspace's scratch clobbered in between, through all three sweeps that
// read a plan: the exact one on scaled int64 costs and in rationals must
// return what a fresh MaxRatio of the sibling returns, ratio and witness bit
// for bit, and the float screen the enclosure a fresh ApproxMaxRatio
// returns. Structural errors must carry over.
func TestFloatPlanReuse(t *testing.T) {
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
				ws.SetForceRational(forceRat)
				got, gerr := ws.MaxRatioPlan(plan, sib)
				ws.SetForceRational(false)
				if ws.UsedInt() == forceRat && gerr == nil {
					t.Fatalf("seed %d: forced rational %v, yet int64 path %v", seed, forceRat, ws.UsedInt())
				}
				if (gerr == nil) != (werr == nil) || got.Ratio.String() != want.Ratio.String() ||
					got.Ratio.IsBig() != want.Ratio.IsBig() || !slices.Equal(got.Cycle, want.Cycle) {
					t.Fatalf("seed %d (rational %v): plan gives %v %v (%v), fresh MaxRatio %v %v (%v)",
						seed, forceRat, got.Ratio, got.Cycle, gerr, want.Ratio, want.Cycle, werr)
				}
			}

			if _, err := ws.ApproxMaxRatio(randomLiveSystem(rng, 3+rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
			got, gerr := ws.ApproxMaxRatioPlan(plan, sib)
			var fresh Workspace
			wantF, werrF := fresh.ApproxMaxRatio(sib)
			if (gerr == nil) != (werrF == nil) || math.Float64bits(got.Ratio) != math.Float64bits(wantF.Ratio) ||
				math.Float64bits(got.Err) != math.Float64bits(wantF.Err) {
				t.Fatalf("seed %d: plan gives %v (%v), fresh sweep %v (%v)", seed, got, gerr, wantF, werrF)
			}
		}
	}

	deadlock := NewSystem(2)
	deadlock.AddEdge(0, 1, rat.One(), 0)
	deadlock.AddEdge(1, 0, rat.One(), 0)
	plan := ws.Compile(deadlock)
	if _, err := ws.ApproxMaxRatioPlan(plan, deadlock); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked plan: err = %v, want ErrDeadlock", err)
	}
	if _, err := ws.MaxRatioPlan(plan, deadlock); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked plan, exact sweep: err = %v, want ErrDeadlock", err)
	}
	negative := NewSystem(2)
	negative.AddEdge(0, 1, rat.FromInt(-1), 0)
	negative.AddEdge(1, 0, rat.One(), 1)
	plan = ws.Compile(negative)
	if _, err := ws.ApproxMaxRatioPlan(plan, negative); err == nil {
		t.Fatal("negative cost accepted by a plan evaluation")
	}
	if _, err := ws.MaxRatioPlan(plan, negative); err == nil {
		t.Fatal("negative cost accepted by an exact plan evaluation")
	}
}
