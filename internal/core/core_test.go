package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// randomInstance draws a random timed instance: n stages with replication in
// [1, maxRep], operation times uniform integers in [lo, hi].
func randomInstance(rng *rand.Rand, n, maxRep int, lo, hi int64) *model.Instance {
	m := make([]int, n)
	for i := range m {
		m[i] = 1 + rng.Intn(maxRep)
	}
	return randomInstanceWithReps(rng, m, lo, hi)
}

func randomInstanceWithReps(rng *rand.Rand, reps []int, lo, hi int64) *model.Instance {
	draw := func() rat.Rat { return rat.FromInt(lo + rng.Int63n(hi-lo+1)) }
	n := len(reps)
	comp := make([][]rat.Rat, n)
	for i := range comp {
		comp[i] = make([]rat.Rat, reps[i])
		for a := range comp[i] {
			comp[i][a] = draw()
		}
	}
	comm := make([][][]rat.Rat, n-1)
	for i := range comm {
		comm[i] = make([][]rat.Rat, reps[i])
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, reps[i+1])
			for b := range comm[i][a] {
				comm[i][a][b] = draw()
			}
		}
	}
	inst, err := model.FromTimes(comp, comm)
	if err != nil {
		panic(err)
	}
	return inst
}

func TestNoReplicationPeriodEqualsMct(t *testing.T) {
	// Section 2: without replication the period is the critical resource's
	// cycle-time, for both models.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(4), 1, 1, 50)
		for _, cm := range model.Models() {
			res, err := Period(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Period.Equal(res.Mct) {
				t.Fatalf("trial %d %v: period %v != Mct %v without replication",
					trial, cm, res.Period, res.Mct)
			}
			if !res.HasCriticalResource() {
				t.Fatalf("trial %d %v: no critical resource without replication", trial, cm)
			}
		}
	}
}

// TestPeriodAtLeastMct checks the lower bound P ≥ Mct against Karp's ratio
// on the unfolded net, computed directly: PeriodTPN's potential check
// returns Mct whenever it proves P ≤ Mct, so it relies on this bound and
// could not detect an Mct that is too large.
func TestPeriodAtLeastMct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ws cycles.Workspace
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(3), 3, 1, 30)
		for _, cm := range model.Models() {
			net, err := tpn.Build(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			crit, err := ws.MaxRatio(net.System())
			if err != nil {
				t.Fatal(err)
			}
			period, mct := crit.Ratio.DivInt(inst.PathCount()), inst.Mct(cm)
			if period.Less(mct) {
				t.Fatalf("trial %d %v: period %v < Mct %v", trial, cm, period, mct)
			}
		}
	}
}

func TestOverlapPolyMatchesTPN(t *testing.T) {
	// Theorem 1's polynomial algorithm must agree exactly with the general
	// unfolded-TPN computation on the overlap model.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(3), 4, 1, 40)
		poly, err := PeriodOverlapPoly(inst)
		if err != nil {
			t.Fatal(err)
		}
		full, err := PeriodTPN(inst, model.Overlap)
		if err != nil {
			t.Fatal(err)
		}
		if !poly.Period.Equal(full.Period) {
			t.Fatalf("trial %d: poly period %v != TPN period %v (reps %v)",
				trial, poly.Period, full.Period, inst.ReplicationCounts())
		}
	}
}

func TestQuickOverlapPolyMatchesTPN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 2+rng.Intn(4), 3, 1, 25)
		poly, err := PeriodOverlapPoly(inst)
		if err != nil {
			return false
		}
		full, err := PeriodTPN(inst, model.Overlap)
		if err != nil {
			return false
		}
		return poly.Period.Equal(full.Period)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestStrictAtLeastOverlap(t *testing.T) {
	// Serializing a processor's three activities can only slow it down:
	// P_strict >= P_overlap on every instance.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(3), 3, 1, 30)
		ov, err := Period(inst, model.Overlap)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Period(inst, model.Strict)
		if err != nil {
			t.Fatal(err)
		}
		if st.Period.Less(ov.Period) {
			t.Fatalf("trial %d: strict period %v < overlap period %v", trial, st.Period, ov.Period)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Period: rat.FromInt(4), Mct: rat.FromInt(4)}
	if !r.HasCriticalResource() || !r.Gap().IsZero() {
		t.Error("critical resource not detected")
	}
	if got := r.Throughput(); !got.Equal(rat.New(1, 4)) {
		t.Errorf("throughput = %v", got)
	}
	r = Result{Period: rat.FromInt(5), Mct: rat.FromInt(4)}
	if r.HasCriticalResource() {
		t.Error("phantom critical resource")
	}
	if got := r.Gap(); !got.Equal(rat.New(1, 4)) {
		t.Errorf("gap = %v", got)
	}
}

func TestCommPatternNumbersExampleC(t *testing.T) {
	// Example C of the paper: stages replicated on 5, 21, 27 and 11
	// processors. For the F1 column (21 senders, 27 receivers):
	// p = gcd(21,27) = 3, u = 7, v = 9, m = 10395,
	// c = m / lcm(21,27) = 10395/189 = 55 patterns per component.
	rng := rand.New(rand.NewSource(23))
	inst := randomInstanceWithReps(rng, []int{5, 21, 27, 11}, 1, 10)
	pats := CommPatterns(inst)
	if len(pats) != 3 {
		t.Fatalf("CommPatterns returned %d entries", len(pats))
	}
	p1 := pats[1]
	if p1.P != 3 || p1.U != 7 || p1.V != 9 || p1.LCM != 189 || p1.C != 55 {
		t.Fatalf("F1 pattern = %+v, want p=3 u=7 v=9 lcm=189 c=55", p1)
	}
	if inst.PathCount() != 10395 {
		t.Fatalf("PathCount = %d, want 10395", inst.PathCount())
	}
	// The polynomial algorithm must handle this instance even though the
	// unfolded TPN would have 10395 rows.
	if _, err := PeriodOverlapPoly(inst); err != nil {
		t.Fatal(err)
	}
}

func TestComponentDecompositionCoversAllPairs(t *testing.T) {
	// Every (sender, receiver) pair that actually occurs in the round-robin
	// (i.e. pairs congruent mod gcd) appears in exactly one component.
	rng := rand.New(rand.NewSource(29))
	inst := randomInstanceWithReps(rng, []int{6, 4}, 1, 10)
	pat := NewCommPattern(inst, 0)
	if pat.P != 2 || pat.U != 3 || pat.V != 2 {
		t.Fatalf("pattern = %+v", pat)
	}
	seen := map[[2]int]int{}
	for g := 0; g < pat.P; g++ {
		for a := 0; a < pat.U; a++ {
			for b := 0; b < pat.V; b++ {
				pair := [2]int{pat.SenderIndex(g, a), pat.ReceiverIndex(g, b)}
				seen[pair]++
			}
		}
	}
	// Pairs that occur: j mod 6 = a, j mod 4 = b solvable iff a ≡ b mod 2.
	m := inst.PathCount()
	for j := int64(0); j < m; j++ {
		pair := [2]int{int(j % 6), int(j % 4)}
		if seen[pair] != 1 {
			t.Fatalf("pair %v seen %d times", pair, seen[pair])
		}
	}
}
