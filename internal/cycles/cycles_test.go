package cycles

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

// ring builds a simple token ring: k vertices in a cycle, each edge cost c,
// one edge carrying the single token.
func ring(k int, c rat.Rat) *System {
	s := NewSystem(k)
	for i := 0; i < k; i++ {
		tokens := 0
		if i == k-1 {
			tokens = 1
		}
		s.AddEdge(i, (i+1)%k, c, tokens)
	}
	return s
}

func TestSelfLoopRatio(t *testing.T) {
	s := NewSystem(1)
	s.AddEdge(0, 0, rat.FromInt(7), 1)
	for name, f := range engines() {
		r, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Equal(rat.FromInt(7)) {
			t.Errorf("%s: self loop ratio = %v, want 7", name, r)
		}
	}
}

// engines returns the exact engines keyed by name.
func engines() map[string]func(*System) (rat.Rat, error) {
	return map[string]func(*System) (rat.Rat, error){
		"contract": func(s *System) (rat.Rat, error) {
			r, err := s.MaxRatio()
			return r.Ratio, err
		},
		"howard": func(s *System) (rat.Rat, error) {
			r, err := s.MaxRatioHoward()
			return r.Ratio, err
		},
		"brute": func(s *System) (rat.Rat, error) {
			r, err := s.MaxRatioBrute()
			return r.Ratio, err
		},
	}
}

func TestRingRatio(t *testing.T) {
	s := ring(4, rat.FromInt(3))
	for name, f := range engines() {
		r, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Equal(rat.FromInt(12)) {
			t.Errorf("%s: ring ratio = %v, want 12", name, r)
		}
	}
}

func TestTwoRingsTakesMax(t *testing.T) {
	// Two disjoint rings with ratios 12 and 10.
	s := NewSystem(6)
	for i := 0; i < 3; i++ {
		tok := 0
		if i == 2 {
			tok = 1
		}
		s.AddEdge(i, (i+1)%3, rat.FromInt(4), tok)          // ratio 12
		s.AddEdge(3+i, 3+(i+1)%3, rat.New(10, 3), tokOf(i)) // ratio 10
	}
	for name, f := range engines() {
		r, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Equal(rat.FromInt(12)) {
			t.Errorf("%s: ratio = %v, want 12", name, r)
		}
	}
}

func tokOf(i int) int {
	if i == 2 {
		return 1
	}
	return 0
}

func TestSharedVertexCycles(t *testing.T) {
	// Figure-8: two cycles through vertex 0 with different ratios.
	s := NewSystem(3)
	s.AddEdge(0, 1, rat.FromInt(5), 0)
	s.AddEdge(1, 0, rat.FromInt(5), 1) // cycle ratio 10
	s.AddEdge(0, 2, rat.FromInt(2), 0)
	s.AddEdge(2, 0, rat.FromInt(3), 1) // cycle ratio 5
	for name, f := range engines() {
		r, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Equal(rat.FromInt(10)) {
			t.Errorf("%s: ratio = %v, want 10", name, r)
		}
	}
}

func TestMultiTokenEdge(t *testing.T) {
	// Single loop of cost 9 carrying 3 tokens: ratio 3.
	s := NewSystem(2)
	s.AddEdge(0, 1, rat.FromInt(4), 1)
	s.AddEdge(1, 0, rat.FromInt(5), 2)
	for name, f := range engines() {
		r, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Equal(rat.FromInt(3)) {
			t.Errorf("%s: ratio = %v, want 3", name, r)
		}
	}
}

func TestNoCycle(t *testing.T) {
	s := NewSystem(3)
	s.AddEdge(0, 1, rat.FromInt(1), 1)
	s.AddEdge(1, 2, rat.FromInt(1), 0)
	if _, err := s.MaxRatio(); !errors.Is(err, ErrNoCycle) {
		t.Errorf("MaxRatio on DAG: err = %v, want ErrNoCycle", err)
	}
	if _, err := s.MaxRatioHoward(); !errors.Is(err, ErrNoCycle) {
		t.Errorf("Howard on DAG: err = %v, want ErrNoCycle", err)
	}
	if _, err := s.MaxRatioBrute(); !errors.Is(err, ErrNoCycle) {
		t.Errorf("Brute on DAG: err = %v, want ErrNoCycle", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := NewSystem(2)
	s.AddEdge(0, 1, rat.FromInt(1), 0)
	s.AddEdge(1, 0, rat.FromInt(1), 0)
	if _, err := s.MaxRatio(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("MaxRatio: err = %v, want ErrDeadlock", err)
	}
	if _, err := s.MaxRatioHoward(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Howard: err = %v, want ErrDeadlock", err)
	}
}

func TestWitnessAchievesRatio(t *testing.T) {
	s := randomLiveSystem(rand.New(rand.NewSource(42)), 8)
	res, err := s.MaxRatio()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle == nil {
		t.Fatal("no witness returned")
	}
	got, err := s.CycleRatio(res.Cycle)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(res.Ratio) {
		t.Errorf("witness ratio %v != reported %v", got, res.Ratio)
	}
	if err := s.VerifyRatio(res.Ratio); err != nil {
		t.Errorf("VerifyRatio: %v", err)
	}
}

func TestVerifyRatioRejectsWrongValues(t *testing.T) {
	s := ring(3, rat.FromInt(2)) // ratio 6
	if err := s.VerifyRatio(rat.FromInt(6)); err != nil {
		t.Errorf("correct ratio rejected: %v", err)
	}
	if err := s.VerifyRatio(rat.FromInt(5)); err == nil {
		t.Error("too-small ratio accepted")
	}
	if err := s.VerifyRatio(rat.FromInt(7)); err == nil {
		t.Error("too-large ratio accepted")
	}
}

// randomLiveSystem builds a random system guaranteed deadlock-free: it
// layers vertices and only lets zero-token edges go "forward", while token
// edges can go anywhere.
func randomLiveSystem(rng *rand.Rand, n int) *System {
	s := NewSystem(n)
	// Backbone ring so a cycle always exists.
	for i := 0; i < n; i++ {
		tok := 0
		if i == n-1 {
			tok = 1
		}
		s.AddEdge(i, (i+1)%n, rat.New(int64(1+rng.Intn(20)), int64(1+rng.Intn(4))), tok)
	}
	extra := rng.Intn(2 * n)
	for k := 0; k < extra; k++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		cost := rat.New(int64(rng.Intn(30)), int64(1+rng.Intn(5)))
		if u < v && rng.Intn(2) == 0 {
			s.AddEdge(u, v, cost, 0) // forward zero-token edge: safe
		} else {
			s.AddEdge(u, v, cost, 1+rng.Intn(2))
		}
	}
	return s
}

func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomLiveSystem(rng, 3+rng.Intn(6))
		want, err := s.MaxRatioBrute()
		if err != nil {
			return false
		}
		got, err := s.MaxRatio()
		if err != nil || !got.Ratio.Equal(want.Ratio) {
			t.Logf("seed %d: contract %v vs brute %v (err %v)", seed, got.Ratio, want.Ratio, err)
			return false
		}
		how, err := s.MaxRatioHoward()
		if err != nil || !how.Ratio.Equal(want.Ratio) {
			t.Logf("seed %d: howard %v vs brute %v (err %v)", seed, how.Ratio, want.Ratio, err)
			return false
		}
		return s.VerifyRatio(want.Ratio) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickLawlerApproximates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomLiveSystem(rng, 3+rng.Intn(5))
		exact, err := s.MaxRatio()
		if err != nil {
			return false
		}
		approx, err := s.MaxRatioLawler(1e-9)
		if err != nil {
			return false
		}
		return math.Abs(approx-exact.Ratio.Float64()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateElementaryCyclesCount(t *testing.T) {
	// Complete digraph on 3 vertices (no self loops):
	// 3 two-cycles + 2 three-cycles = 5 elementary cycles.
	s := NewSystem(3)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v {
				s.AddEdge(u, v, rat.One(), 1)
			}
		}
	}
	count := 0
	if err := s.EnumerateElementaryCycles(func(c []int) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("elementary cycle count = %d, want 5", count)
	}
}

func TestNegativeCostRejected(t *testing.T) {
	s := NewSystem(1)
	s.AddEdge(0, 0, rat.FromInt(-1), 1)
	if err := s.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}
