package core_test

// Native fuzz target cross-checking the exact period backends: fuzz bytes
// decode into a small timed instance (every byte string decodes into a
// valid one, so no corpus entry is wasted on parse failures) and Karp,
// Howard, the production solver paths and — on the overlap model — the
// Theorem 1 polynomial algorithm must agree exactly, and the potential
// check must hold at Karp's ratio and fail below it; the solver's cutoff
// must split exactly at the shared answer, with a scale-mode byte steering
// weights far beyond int64 range, up and down. A seeded
// corpus lives in testdata/fuzz/FuzzPeriodBackends; CI runs a short -fuzz
// smoke on top of the regression replay that plain `go test` performs.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// fuzzReader doles out bytes, padding with zeros once the input runs dry —
// decoding never fails, it only gets less interesting.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// powRat10 returns 10^exp as an exact rational (exp >= 0).
func powRat10(exp int) rat.Rat {
	x := rat.One()
	ten := rat.FromInt(10)
	for i := 0; i < exp; i++ {
		x = x.Mul(ten)
	}
	return x
}

// decodeFuzzInstance turns arbitrary bytes into a small valid instance:
// 2..4 stages, replication 1..3, operation times 1..16 (shape shared with
// the differential harness via buildInstance). A scale-mode byte then
// multiplies every operation time by 1, 10^340 or 10^-315: the extreme
// scales leave the answers unchanged up to scale but force every exact
// loop, the potential checks of the cutoff among them, onto big rationals.
func decodeFuzzInstance(data []byte) *model.Instance {
	r := &fuzzReader{data: data}
	n := 2 + int(r.next())%3
	reps := make([]int, n)
	for i := range reps {
		reps[i] = 1 + int(r.next())%3
	}
	scale := rat.One()
	switch int(r.next()) % 3 {
	case 1:
		scale = powRat10(340)
	case 2:
		scale = rat.One().Div(powRat10(315))
	}
	return buildInstance(reps, func() rat.Rat { return rat.FromInt(1 + int64(r.next())%16).Mul(scale) })
}

func FuzzPeriodBackends(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("replicated-workflow-period"))
	f.Add([]byte{2, 3, 3, 3, 3, 15, 1, 15, 1, 15, 1, 15, 1, 15})
	// Extreme-scale seeds: huge (scale mode 1) and tiny (mode 2) weights,
	// both on big rationals.
	f.Add([]byte{0, 0, 0, 1, 5, 12, 3, 7, 9})
	f.Add([]byte{1, 2, 0, 1, 2, 15, 4, 8, 2, 6, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst := decodeFuzzInstance(data)
		var karpWS, howardWS cycles.Workspace
		for _, cm := range model.Models() {
			net, err := tpn.Build(inst, cm)
			if err != nil {
				t.Fatalf("%v: build: %v", cm, err)
			}
			sys := net.System()
			karp, err := karpWS.MaxRatio(sys)
			if err != nil {
				t.Fatalf("%v: karp: %v", cm, err)
			}
			how, err := howardWS.MaxRatioHoward(sys)
			if err != nil {
				t.Fatalf("%v: howard: %v", cm, err)
			}
			if !how.Ratio.Equal(karp.Ratio) {
				t.Fatalf("%v: howard %v != karp %v (reps %v)", cm, how.Ratio, karp.Ratio, inst.ReplicationCounts())
			}
			for name, res := range map[string]cycles.Result{"karp": karp, "howard": how} {
				if wr, err := sys.CycleRatio(res.Cycle); err != nil || !wr.Equal(res.Ratio) {
					t.Fatalf("%v: %s witness ratio %v (err %v) != %v", cm, name, wr, err, res.Ratio)
				}
			}
			// The potential check splits exactly at Karp's ratio: it holds
			// there and fails a hair below.
			plan := karpWS.Compile(sys)
			below := karp.Ratio.Sub(karp.Ratio.DivInt(1 << 40))
			for _, c := range []struct {
				lambda rat.Rat
				want   bool
			}{{karp.Ratio, true}, {below, false}} {
				if ok, err := karpWS.RatioAtMostPlan(plan, sys, c.lambda); ok != c.want || err != nil {
					t.Fatalf("%v: check at λ %v (karp %v): %v, %v; want %v", cm, c.lambda, karp.Ratio, ok, err, c.want)
				}
			}
			period := karp.Ratio.DivInt(inst.PathCount())
			for _, b := range []cycles.Backend{cycles.BackendAuto, cycles.BackendKarp, cycles.BackendHoward} {
				s := core.NewSolver()
				s.Backend = b
				res, err := s.Period(inst, cm)
				if err != nil {
					t.Fatalf("%v: solver(%v): %v", cm, b, err)
				}
				if !res.Period.Equal(period) {
					t.Fatalf("%v: solver(%v) %v != %v", cm, b, res.Period, period)
				}
				if msg := checkCutoff(s, inst, cm, res); msg != "" {
					t.Fatalf("%v: solver(%v): %s (reps %v)", cm, b, msg, inst.ReplicationCounts())
				}
			}
			if cm == model.Overlap {
				poly, err := core.PeriodOverlapPoly(inst)
				if err != nil {
					t.Fatalf("poly: %v", err)
				}
				if !poly.Period.Equal(period) {
					t.Fatalf("poly %v != tpn %v", poly.Period, period)
				}
			}
		}
	})
}
