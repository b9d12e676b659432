// Command validate is the repository's self-check: on random instances it
// computes the period in up to eight independent ways and verifies that
// they agree exactly:
//
//  0. the production core.Solver path;
//  1. Theorem 1 polynomial algorithm (overlap model only);
//  2. unfolded-TPN critical cycle via cycle iteration from 0 (check 0
//     starts it at Mct·m);
//  3. unfolded-TPN critical cycle via Howard policy iteration;
//  4. max-plus spectral radius of the net's recurrence matrix;
//  5. exact unrolling of the net (steady-state firing rate);
//  6. the from-first-principles operational simulator;
//  7. the production solver's exact cutoff, which must rule the instance
//     out at ref = P and at ref = Mct, and return check 0's result at
//     ref = P + P/2^40.
//
// Any disagreement prints the offending instance and exits non-zero.
//
// Runs spread over the batch-evaluation engine's work-stealing pool
// (instances are seeded independently, so the check set is identical at any
// worker count) and Ctrl-C cancels cleanly mid-campaign.
//
// Usage:
//
//	validate [-runs 200] [-seed 1] [-maxrep 4] [-stages 4] [-quiet] [-workers 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/mpa"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/tpn"
	"repro/internal/workload"
)

func main() {
	runs := flag.Int("runs", 200, "number of random instances")
	seed := flag.Int64("seed", 1, "base random seed")
	maxRep := flag.Int("maxrep", 4, "maximum replication per stage")
	maxStages := flag.Int("stages", 4, "maximum number of stages")
	quiet := flag.Bool("quiet", false, "only print failures and the summary")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	flag.Parse()

	if *runs < 0 {
		*runs = 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := engine.New(engine.Options{Workers: *workers, CacheEntries: -1})

	t0 := time.Now()
	fails := make([]error, *runs) // per-run verdicts, reported in run order
	var done atomic.Int64
	err := eng.ForEach(ctx, *runs, func(k int) {
		rng := workload.Seeded(*seed + int64(k))
		inst := randomInstance(rng, 2+rng.Intn(*maxStages-1), *maxRep)
		workload.Release(rng)
		for _, cm := range model.Models() {
			if cerr := check(inst, cm); cerr != nil {
				fails[k] = fmt.Errorf("(%v, reps %v): %w", cm, inst.ReplicationCounts(), cerr)
				break
			}
		}
		if n := done.Add(1); !*quiet && n%50 == 0 {
			fmt.Printf("checked %d/%d instances (%v)\n", n, *runs, time.Since(t0).Round(time.Millisecond))
		}
	})
	bad := 0
	for k, ferr := range fails {
		if ferr != nil {
			bad++
			fmt.Fprintf(os.Stderr, "FAIL run %d %v\n", k, ferr)
		}
	}
	if err != nil {
		// Interrupted: the disagreements recorded so far are already printed
		// above — they are the evidence this tool exists to produce.
		fmt.Fprintf(os.Stderr, "validate: interrupted (%d disagreements among completed runs)\n", bad)
		os.Exit(130)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "validate: %d disagreements\n", bad)
		os.Exit(1)
	}
	fmt.Printf("validate: %d instances x 2 models, all engines agree (%d workers, %v)\n",
		*runs, eng.Workers(), time.Since(t0).Round(time.Millisecond))
}

func check(inst *model.Instance, cm model.CommModel) error {
	net, err := tpn.Build(inst, cm)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	m := inst.PathCount()

	// 2. cycle iteration from 0.
	crit, err := net.MaxCycleRatio()
	if err != nil {
		return fmt.Errorf("cycle iteration: %w", err)
	}
	period := crit.Ratio.DivInt(m)

	// 0. the production solver path: what the engine's workers actually run
	// must agree with every reference engine.
	solver := core.NewSolver()
	prod, err := solver.Period(inst, cm)
	if err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	if !prod.Period.Equal(period) {
		return fmt.Errorf("solver %v != tpn %v", prod.Period, period)
	}

	// 1. polynomial algorithm (overlap only).
	if cm == model.Overlap {
		poly, err := core.PeriodOverlapPoly(inst)
		if err != nil {
			return fmt.Errorf("poly: %w", err)
		}
		if !poly.Period.Equal(period) {
			return fmt.Errorf("poly %v != tpn %v", poly.Period, period)
		}
	}

	// 3. Howard.
	how, err := net.System().MaxRatioHoward()
	if err != nil {
		return fmt.Errorf("howard: %w", err)
	}
	if !how.Ratio.Equal(crit.Ratio) {
		return fmt.Errorf("howard %v != cycle iteration %v", how.Ratio, crit.Ratio)
	}

	// 4. max-plus spectral radius.
	eig, err := mpa.CycleTime(net)
	if err != nil {
		return fmt.Errorf("mpa: %w", err)
	}
	if !eig.Equal(crit.Ratio) {
		return fmt.Errorf("mpa %v != cycle iteration %v", eig, crit.Ratio)
	}

	// 5. unrolling.
	measured, err := net.MeasuredPeriod(int(10*m)+20, int(2*m))
	if err != nil {
		return fmt.Errorf("unroll: %w", err)
	}
	if !measured.Equal(crit.Ratio) {
		return fmt.Errorf("unrolled %v != analytic %v", measured, crit.Ratio)
	}

	// 6. operational simulator: its completion times must equal the net
	// unrolling data set for data set (exact, no asymptotics involved).
	const periods = 10
	op, err := sim.RunOperational(inst, cm, periods*int(m))
	if err != nil {
		return fmt.Errorf("operational: %w", err)
	}
	start, err := net.Unroll(periods)
	if err != nil {
		return fmt.Errorf("unroll occurrences: %w", err)
	}
	lastStage := inst.NumStages() - 1
	for k := 0; k < periods; k++ {
		for r := 0; r < int(m); r++ {
			ti := net.TransitionAt(r, net.Cols-1)
			want := start[ti][k].Add(net.Transitions[ti].Time)
			ds := k*int(m) + r
			if !op.CompEnd[lastStage][ds].Equal(want) {
				return fmt.Errorf("operational completion of data set %d = %v, TPN says %v",
					ds, op.CompEnd[lastStage][ds], want)
			}
		}
	}

	// 7. exact cutoff: it must split exactly at the period (the property
	// every search that passes its incumbent relies on).
	for _, ref := range []rat.Rat{prod.Period, prod.Mct} {
		if _, err := solver.PeriodBelow(inst, cm, ref); !errors.Is(err, core.ErrCutoff) {
			return fmt.Errorf("cutoff at %v kept period %v (err %v)", ref, prod.Period, err)
		}
	}
	above := prod.Period.Add(prod.Period.DivInt(1 << 40))
	below, err := solver.PeriodBelow(inst, cm, above)
	if err != nil {
		return fmt.Errorf("cutoff at %v: %w", above, err)
	}
	if below.Period.String() != prod.Period.String() || !below.Mct.Equal(prod.Mct) || below.Method != prod.Method {
		return fmt.Errorf("cutoff at %v returned %+v, production path %+v", above, below, prod)
	}

	// Invariant: P >= Mct always.
	if period.Less(inst.Mct(cm)) {
		return fmt.Errorf("period %v below Mct %v", period, inst.Mct(cm))
	}
	return nil
}

func randomInstance(rng *rand.Rand, n, maxRep int) *model.Instance {
	reps := make([]int, n)
	for i := range reps {
		reps[i] = 1 + rng.Intn(maxRep)
	}
	draw := func() rat.Rat { return rat.FromInt(1 + rng.Int63n(30)) }
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
