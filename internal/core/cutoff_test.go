package core_test

// Property tests of the exact cutoff, Solver.PeriodBelow: it must cut
// exactly the instances whose period is at least the reference, and return
// Period's Result, bit for bit, for every other one. Near ties, periods
// that differ by less than 1e-12 relatively, are where a float comparison
// would misrank; the cutoff must decide them exactly.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rat"
)

// sameResult reports whether two Results are bit-identical: equal fields,
// with each rational in the same representation.
func sameResult(a, b core.Result) bool {
	same := func(x, y rat.Rat) bool { return x.String() == y.String() && x.IsBig() == y.IsBig() }
	return a.Model == b.Model && a.PathCount == b.PathCount && a.Method == b.Method &&
		same(a.Period, b.Period) && same(a.Mct, b.Mct)
}

// checkCutoff runs s.PeriodBelow on inst at three references around want,
// Period's Result on the same solver: it must cut at ref = P and at
// ref = Mct ≤ P, and return want at ref = P + P/2^40. It returns a
// description of the first violation, or "".
func checkCutoff(s *core.Solver, inst *model.Instance, cm model.CommModel, want core.Result) string {
	p := want.Period
	for _, ref := range []rat.Rat{p, want.Mct} {
		if res, err := s.PeriodBelow(inst, cm, ref); !errors.Is(err, core.ErrCutoff) {
			return fmt.Sprintf("cutoff at %v (period %v) returned %v, %v", ref, p, res.Period, err)
		}
	}
	above := p.Add(p.DivInt(1 << 40))
	res, err := s.PeriodBelow(inst, cm, above)
	if err != nil || !sameResult(res, want) {
		return fmt.Sprintf("cutoff at %v returned %+v, %v; want %+v", above, res, err, want)
	}
	return ""
}

// nearTiePair builds two instances whose exact periods differ by delta
// absolute on a base of roughly `scale` — a relative gap of delta/scale.
// Shape: 2 stages, no replication, one heavy first stage; under both models
// the heavy stage dominates the period, so the gap between the pair's
// periods is exactly delta/pathcount.
func nearTiePair(scale, delta int64) (a, b *model.Instance) {
	build := func(heavy int64) *model.Instance {
		return buildInstance([]int{1, 1}, func() func() rat.Rat {
			times := []rat.Rat{rat.FromInt(heavy), rat.FromInt(7), rat.FromInt(3)}
			k := 0
			return func() rat.Rat {
				t := times[k%len(times)]
				k++
				return t
			}
		}())
	}
	return build(scale), build(scale + delta)
}

// TestNearTieScreeningFallsBackToExact adversarially generates pairs whose
// exact periods differ by < 1e-12 relative (including exact ties) and
// asserts, on both communication models, that the cutoff at B's period
// rules A out exactly when A's period is at least B's, and otherwise
// returns A's exact Result.
func TestNearTieScreeningFallsBackToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	solver := core.NewSolver()
	for trial := 0; trial < 200; trial++ {
		// Bases up to ~3e15 with deltas 0 or 1: relative gaps of 0 or
		// ~3e-16..1e-13, all far below 1e-12.
		scale := (1 + rng.Int63n(300)) * 1_000_000_000_0 * (1 + rng.Int63n(30))
		delta := rng.Int63n(2)
		instA, instB := nearTiePair(scale, delta)
		for _, cm := range model.Models() {
			for _, pair := range [][2]*model.Instance{{instA, instB}, {instB, instA}} {
				pa, err := solver.Period(pair[0], cm)
				if err != nil {
					t.Fatalf("trial %d %v: exact A: %v", trial, cm, err)
				}
				pb, err := solver.Period(pair[1], cm)
				if err != nil {
					t.Fatalf("trial %d %v: exact B: %v", trial, cm, err)
				}
				res, err := solver.PeriodBelow(pair[0], cm, pb.Period)
				if cut := errors.Is(err, core.ErrCutoff); cut != !pa.Period.Less(pb.Period) {
					t.Fatalf("trial %d %v: cutoff at %v cut=%v for period %v (err %v)",
						trial, cm, pb.Period, cut, pa.Period, err)
				}
				if err == nil && !sameResult(res, pa) {
					t.Fatalf("trial %d %v: below the cutoff got %+v, want %+v", trial, cm, res, pa)
				}
			}
		}
	}
}

// TestPeriodBelowMatchesPeriodOnRandomFamilies: the three-point cutoff
// check on the generator the differential harness uses, for both models, on
// one reused solver, plus error parity: on an instance whose unfolded net
// exceeds the row cap, the cutoff fails like Period unless Mct alone
// already rules the instance out.
func TestPeriodBelowMatchesPeriodOnRandomFamilies(t *testing.T) {
	solver := core.NewSolver()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		inst := genInstance(rng, 4, 4)
		for _, cm := range model.Models() {
			want, err := solver.Period(inst, cm)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, cm, err)
			}
			if msg := checkCutoff(solver, inst, cm, want); msg != "" {
				t.Fatalf("seed %d %v: %s", seed, cm, msg)
			}
		}
	}
	capped := core.NewSolver()
	capped.MaxRows = 1
	inst := buildInstance([]int{2, 3}, func() rat.Rat { return rat.FromInt(5) })
	_, perr := capped.Period(inst, model.Strict)
	if perr == nil {
		t.Fatal("a one-row cap accepted a 6-row net")
	}
	mct := inst.Mct(model.Strict)
	if _, err := capped.PeriodBelow(inst, model.Strict, mct.Add(rat.One())); err == nil || errors.Is(err, core.ErrCutoff) {
		t.Fatalf("cutoff above Mct on an oversized net: err %v, want Period's %v", err, perr)
	}
	if _, err := capped.PeriodBelow(inst, model.Strict, mct); !errors.Is(err, core.ErrCutoff) {
		t.Fatalf("cutoff at Mct on an oversized net: err %v, want ErrCutoff", err)
	}
}
