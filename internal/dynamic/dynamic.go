// Package dynamic explores the paper's stated future work (Section 6):
// platforms whose processor speeds and link bandwidths are random variables.
//
// Given a base instance, each Monte-Carlo sample multiplies every operation
// time by an independent factor drawn uniformly from
// [1-jitter%, 1+jitter%] (in exact rational arithmetic), recomputes the
// period, and aggregates the distribution of periods and of the
// period-to-Mct gap.
package dynamic

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/workload"
)

// Perturbation scales each operation time by (100 + U{-JitterPct..+JitterPct})/100.
type Perturbation struct {
	JitterPct int
}

// Validate checks bounds.
func (p Perturbation) Validate() error {
	if p.JitterPct < 0 || p.JitterPct >= 100 {
		return fmt.Errorf("dynamic: jitter must be in [0, 100), got %d", p.JitterPct)
	}
	return nil
}

// factor draws the random scaling as an exact rational.
func (p Perturbation) factor(rng *rand.Rand) rat.Rat {
	if p.JitterPct == 0 {
		return rat.One()
	}
	delta := rng.Int63n(2*int64(p.JitterPct)+1) - int64(p.JitterPct)
	return rat.New(100+delta, 100)
}

// Sample draws one perturbed instance.
func (p Perturbation) Sample(inst *model.Instance, rng *rand.Rand) (*model.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := inst.NumStages()
	comp := make([][]rat.Rat, n)
	for i := 0; i < n; i++ {
		comp[i] = make([]rat.Rat, inst.Replication(i))
		for a := range comp[i] {
			comp[i][a] = inst.CompTime(i, a).Mul(p.factor(rng))
		}
	}
	comm := make([][][]rat.Rat, n-1)
	for i := 0; i < n-1; i++ {
		comm[i] = make([][]rat.Rat, inst.Replication(i))
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, inst.Replication(i+1))
			for b := range comm[i][a] {
				comm[i][a][b] = inst.CommTime(i, a, b).Mul(p.factor(rng))
			}
		}
	}
	return model.FromTimes(comp, comm)
}

// Stats summarizes a Monte-Carlo run.
type Stats struct {
	Runs int
	// MinPeriod, MeanPeriod, MaxPeriod and StdDev describe the period
	// distribution (float64 summaries of exact per-run values).
	MinPeriod, MeanPeriod, MaxPeriod, StdDev float64
	// NoCritical counts samples whose period strictly exceeds Mct.
	NoCritical int
	// MeanGapPct is the mean relative gap (P-Mct)/Mct in percent over all
	// samples (zero-gap samples included).
	MeanGapPct float64
	// BasePeriod is the unperturbed period.
	BasePeriod float64
}

// MonteCarlo evaluates `runs` perturbed instances under the given model,
// using a bounded worker pool (parallelism 0 = GOMAXPROCS).
func MonteCarlo(inst *model.Instance, cm model.CommModel, pert Perturbation, runs int, seed int64, parallelism int) (Stats, error) {
	eng := engine.New(engine.Options{Workers: parallelism, CacheEntries: -1})
	return MonteCarloEngine(context.Background(), eng, inst, cm, pert, runs, seed)
}

// MonteCarloEngine runs the Monte-Carlo campaign on the given engine's
// worker pool. Sample k derives its rng from seed+k and outcomes aggregate
// in index order, so the statistics are bit-identical at any worker count.
// Samples bypass the engine's memo cache: each perturbed instance has
// unique exact times, so caching them would only displace entries a shared
// engine's other workloads (mapping search) actually revisit.
func MonteCarloEngine(ctx context.Context, eng *engine.Engine, inst *model.Instance, cm model.CommModel, pert Perturbation, runs int, seed int64) (Stats, error) {
	if err := pert.Validate(); err != nil {
		return Stats{}, err
	}
	if runs < 1 {
		return Stats{}, fmt.Errorf("dynamic: need at least one run")
	}
	base, err := core.Period(inst, cm)
	if err != nil {
		return Stats{}, err
	}
	type outcome struct {
		period float64
		gapPct float64
		noCrit bool
		err    error
	}
	outs := make([]outcome, runs)
	if err := eng.ForEach(ctx, runs, func(k int) {
		rng := workload.Seeded(seed + int64(k))
		sample, err := pert.Sample(inst, rng)
		workload.Release(rng)
		if err != nil {
			outs[k] = outcome{err: err}
			return
		}
		res, err := core.Period(sample, cm)
		if err != nil {
			outs[k] = outcome{err: err}
			return
		}
		outs[k] = outcome{
			period: res.Period.Float64(),
			gapPct: res.Gap().Float64() * 100,
			noCrit: !res.HasCriticalResource(),
		}
	}); err != nil {
		return Stats{}, err
	}

	st := Stats{Runs: runs, BasePeriod: base.Period.Float64(), MinPeriod: math.Inf(1), MaxPeriod: math.Inf(-1)}
	var sum, sumSq, gapSum float64
	var firstErr error
	seen := 0
	for _, o := range outs {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		seen++
		sum += o.period
		sumSq += o.period * o.period
		gapSum += o.gapPct
		if o.period < st.MinPeriod {
			st.MinPeriod = o.period
		}
		if o.period > st.MaxPeriod {
			st.MaxPeriod = o.period
		}
		if o.noCrit {
			st.NoCritical++
		}
	}
	if firstErr != nil {
		return st, firstErr
	}
	st.Runs = seen
	if seen > 0 {
		st.MeanPeriod = sum / float64(seen)
		st.MeanGapPct = gapSum / float64(seen)
		variance := sumSq/float64(seen) - st.MeanPeriod*st.MeanPeriod
		if variance > 0 {
			st.StdDev = math.Sqrt(variance)
		}
	}
	return st, nil
}
