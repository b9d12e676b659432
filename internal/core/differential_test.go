package core_test

// Differential backend testing: on randomly generated instance families the
// period must be identical — as an exact rational — no matter which engine
// computes it. This extends the generated-family pattern of
// internal/tpn/properties_test.go from "poly vs TPN" to the full backend
// matrix: Howard policy iteration, token contraction + Karp, the Theorem 1
// polynomial algorithm, the max-plus spectral radius, and the exact TPN
// unrolling all run on every instance, every witness cycle must attain the
// ratio its engine reports, and the solver's cutoff must split exactly at
// the period.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/mpa"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// buildInstance assembles a timed instance with the given replication
// vector, drawing every operation time from draw. It is the one generator
// behind both the differential harness (rng-backed draw) and the fuzz
// target (byte-stream-backed draw), so the instance shape lives in a single
// place.
func buildInstance(reps []int, draw func() rat.Rat) *model.Instance {
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
		panic(err) // unreachable: the shape is valid by construction
	}
	return inst
}

// genInstance draws a random timed instance: 2..maxStages stages,
// replication 1..maxRep, integer operation times.
func genInstance(rng *rand.Rand, maxStages, maxRep int) *model.Instance {
	n := 2 + rng.Intn(maxStages-1)
	reps := make([]int, n)
	for i := range reps {
		reps[i] = 1 + rng.Intn(maxRep)
	}
	return buildInstance(reps, func() rat.Rat { return rat.FromInt(1 + rng.Int63n(30)) })
}

// TestPeriodBackendsDifferential is the randomized differential harness:
// 220 generated instance families, both communication models, every engine.
func TestPeriodBackendsDifferential(t *testing.T) {
	const families = 220
	var karpWS, howardWS cycles.Workspace
	calls, iters, maxIters := 0, 0, 0
	defer func() {
		t.Logf("cycle iteration from 0: %d calls, %.2f iterations per call, at most %d", calls, float64(iters)/float64(max(calls, 1)), maxIters)
	}()
	for seed := int64(0); seed < families; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := genInstance(rng, 4, 4)
		for _, cm := range model.Models() {
			net, err := tpn.Build(inst, cm)
			if err != nil {
				t.Fatalf("seed %d %v: build: %v", seed, cm, err)
			}
			m := inst.PathCount()
			sys := net.System()

			// Contraction + Karp, with witness certification.
			karp, err := karpWS.MaxRatio(sys)
			if err != nil {
				t.Fatalf("seed %d %v: karp: %v", seed, cm, err)
			}
			calls, iters, maxIters = calls+1, iters+karpWS.Iterations(), max(maxIters, karpWS.Iterations())
			if wr, err := sys.CycleRatio(karp.Cycle); err != nil || !wr.Equal(karp.Ratio) {
				t.Fatalf("seed %d %v: karp witness ratio %v (err %v) != %v", seed, cm, wr, err, karp.Ratio)
			}

			// Howard policy iteration, with witness certification.
			how, err := howardWS.MaxRatioHoward(sys)
			if err != nil {
				t.Fatalf("seed %d %v: howard: %v", seed, cm, err)
			}
			if !how.Ratio.Equal(karp.Ratio) {
				t.Fatalf("seed %d %v: howard %v != karp %v", seed, cm, how.Ratio, karp.Ratio)
			}
			if wr, err := sys.CycleRatio(how.Cycle); err != nil || !wr.Equal(how.Ratio) {
				t.Fatalf("seed %d %v: howard witness ratio %v (err %v) != %v", seed, cm, wr, err, how.Ratio)
			}

			period := karp.Ratio.DivInt(m)

			// The production solver path under every explicit backend, with
			// and without the cutoff.
			for _, b := range []cycles.Backend{cycles.BackendAuto, cycles.BackendKarp, cycles.BackendHoward} {
				s := core.NewSolver()
				s.Backend = b
				res, err := s.Period(inst, cm)
				if err != nil {
					t.Fatalf("seed %d %v: solver(%v): %v", seed, cm, b, err)
				}
				if !res.Period.Equal(period) {
					t.Fatalf("seed %d %v: solver(%v) period %v != %v", seed, cm, b, res.Period, period)
				}
				if msg := checkCutoff(s, inst, cm, res); msg != "" {
					t.Fatalf("seed %d %v: solver(%v): %s", seed, cm, b, msg)
				}
			}

			// Theorem 1 polynomial algorithm (overlap only).
			if cm == model.Overlap {
				poly, err := core.PeriodOverlapPoly(inst)
				if err != nil {
					t.Fatalf("seed %d: poly: %v", seed, err)
				}
				if !poly.Period.Equal(period) {
					t.Fatalf("seed %d: poly %v != tpn %v", seed, poly.Period, period)
				}
			}

			// Max-plus spectral radius, through both backends.
			for _, b := range []cycles.Backend{cycles.BackendKarp, cycles.BackendHoward} {
				eig, err := mpa.CycleTimeBackend(net, b)
				if err != nil {
					t.Fatalf("seed %d %v: mpa(%v): %v", seed, cm, b, err)
				}
				if !eig.Equal(karp.Ratio) {
					t.Fatalf("seed %d %v: mpa(%v) %v != %v", seed, cm, b, eig, karp.Ratio)
				}
			}

			// Exact unrolling of the net: the measured steady-state firing
			// interval equals the analytic ratio.
			measured, err := net.MeasuredPeriod(int(10*m)+20, int(2*m))
			if err != nil {
				t.Fatalf("seed %d %v: unroll: %v", seed, cm, err)
			}
			if !measured.Equal(karp.Ratio) {
				t.Fatalf("seed %d %v: unrolled %v != analytic %v", seed, cm, measured, karp.Ratio)
			}
		}
	}
}
