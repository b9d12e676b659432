package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// AnnealOptions configures simulated annealing over replica partitions.
type AnnealOptions struct {
	// Steps is the number of proposed moves (default 2000).
	Steps int
	// StartTemp and EndTemp bound the geometric cooling schedule, expressed
	// as fractions of the initial period (defaults 0.3 and 0.001).
	StartTemp, EndTemp float64
}

func (o *AnnealOptions) defaults() {
	if o.Steps <= 0 {
		o.Steps = 2000
	}
	if o.StartTemp <= 0 {
		o.StartTemp = 0.3
	}
	if o.EndTemp <= 0 || o.EndTemp >= o.StartTemp {
		o.EndTemp = o.StartTemp / 300
	}
}

// Anneal runs simulated annealing from the greedy solution: at each step a
// random neighbor move (shift/add/drop a processor) is accepted if it
// improves the period, or with probability exp(-Δ/T) otherwise. Annealing
// escapes the local optima that trap pure hill climbing on platforms where
// replication of one stage only pays off after rebalancing another.
func Anneal(pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand, opts AnnealOptions) (Result, error) {
	return AnnealEngine(context.Background(), defaultEngine(), pipe, plat, cm, rng, opts)
}

// AnnealEngine is Anneal on a shared engine, with candidates priced as in
// RandomSearchEngine (see walkEval). The cooling walk is sequential by
// construction; memoization pays off when the walk re-proposes a partition
// (frequent near convergence). The exact cutoff does not apply: the
// acceptance rule needs the exact delta of a worse candidate too.
func AnnealEngine(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand, opts AnnealOptions) (Result, error) {
	return anneal(ctx, eng, walkEval(eng, pipe, plat, cm), pipe, plat, cm, rng, opts)
}

// anneal is the cooling walk from the greedy start, with candidates priced
// by eval.
func anneal(ctx context.Context, eng *engine.Engine, eval func([][]int) (rat.Rat, error), pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand, opts AnnealOptions) (Result, error) {
	opts.defaults()
	start, err := GreedyEngine(ctx, eng, pipe, plat, cm)
	if err != nil {
		return Result{}, err
	}
	n := pipe.NumStages()
	p := plat.NumProcs()
	current := cloneReplicas(start.Mapping.Replicas)
	curPeriod := start.Period
	best := start

	scale := curPeriod.Float64()
	t0 := opts.StartTemp * scale
	t1 := opts.EndTemp * scale
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(opts.Steps-1)))
	temp := t0

	for step := 0; step < opts.Steps; step++ {
		if err := ctx.Err(); err != nil {
			// Deadline mid-anneal: the walk so far already produced a valid
			// mapping (greedy at worst); hand it back instead of failing.
			if best.Mapping != nil {
				return best, nil
			}
			return Result{}, err
		}
		cand := neighbor(rng, current, n, p)
		temp *= cool
		if cand == nil {
			continue
		}
		period, err := eval(cand)
		if err != nil {
			continue
		}
		delta := period.Sub(curPeriod).Float64()
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			current, curPeriod = cand, period
			if curPeriod.Less(best.Period) {
				mapp, err := mapping.New(cloneReplicas(current), p)
				if err != nil {
					return Result{}, err
				}
				best = Result{Mapping: mapp, Period: curPeriod}
			}
		}
	}
	if best.Mapping == nil {
		return Result{}, fmt.Errorf("sched: annealing found no feasible mapping")
	}
	return best, nil
}

// BestOf runs every heuristic (greedy, random restarts, annealing) and
// returns the best mapping found.
func BestOf(pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand) (Result, error) {
	return BestOfEngine(context.Background(), defaultEngine(), pipe, plat, cm, rng)
}

// BestOfEngine runs every heuristic through one shared engine. Random
// search and annealing share one candidate evaluator (see walkEval), so a
// column either walk already solved costs a memo lookup. When the context
// expires mid-search (a wall-clock budget), the best mapping found before
// the deadline is returned rather than an error — an anytime search.
func BestOfEngine(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand) (Result, error) {
	var best Result
	consider := func(r Result, err error) error {
		if err != nil {
			if ctx.Err() != nil {
				if best.Mapping != nil {
					return nil
				}
				return ctx.Err()
			}
			return nil
		}
		if best.Mapping == nil || r.Period.Less(best.Period) {
			best = r
		}
		return nil
	}
	g, err := GreedyEngine(ctx, eng, pipe, plat, cm)
	if err := consider(g, err); err != nil {
		return Result{}, err
	}
	eval := walkEval(eng, pipe, plat, cm)
	rs, err := randomSearch(ctx, eval, pipe, plat, rng, 10, 50)
	if err := consider(rs, err); err != nil {
		return Result{}, err
	}
	an, err := anneal(ctx, eng, eval, pipe, plat, cm, rng, AnnealOptions{Steps: 1500})
	if err := consider(an, err); err != nil {
		return Result{}, err
	}
	if best.Mapping == nil {
		return Result{}, fmt.Errorf("sched: no heuristic found a feasible mapping")
	}
	return best, nil
}

// LowerBound is a period lower bound for any mapping on the platform: with
// stage k replicated on every processor, its work w_k still takes
// w_k / Σ_u Π_u per data set, so
//
//	P >= max_k w_k / Σ_u Π_u.
//
// Tests use it to check that no heuristic reports a period below it.
func LowerBound(pipe *pipeline.Pipeline, plat *platform.Platform) rat.Rat {
	sumSpeed := int64(0)
	for _, s := range plat.Speeds {
		sumSpeed += s
	}
	lb := rat.Zero()
	for _, st := range pipe.Stages {
		if st.Work > 0 {
			lb = rat.Max(lb, rat.New(st.Work, sumSpeed))
		}
	}
	return lb
}
