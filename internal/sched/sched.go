// Package sched implements mapping heuristics on top of the period
// evaluator: given a pipeline and a platform, find a replicated mapping with
// high throughput. Determining the optimal mapping is NP-hard even without
// replication (Benoit & Robert [3], cited in Section 1), so besides an
// exhaustive baseline for tiny instances this package provides greedy
// construction and randomized hill climbing — the heuristics a user of the
// throughput evaluator would actually deploy.
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// Evaluate computes the period of a candidate mapping (smaller is better).
func Evaluate(pipe *pipeline.Pipeline, plat *platform.Platform, mapp *mapping.Mapping, cm model.CommModel) (rat.Rat, error) {
	inst, err := model.FromMapped(pipe, plat, mapp)
	if err != nil {
		return rat.Rat{}, err
	}
	res, err := core.Period(inst, cm)
	if err != nil {
		return rat.Rat{}, err
	}
	return res.Period, nil
}

// EvaluateEngine is Evaluate routed through a shared engine: the
// candidate's period is memoized, so a partition revisited by any
// heuristic (greedy enlargement, hill-climbing moves, annealing) sharing
// the engine is computed once.
func EvaluateEngine(eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, mapp *mapping.Mapping, cm model.CommModel) (rat.Rat, error) {
	inst, err := model.FromMapped(pipe, plat, mapp)
	if err != nil {
		return rat.Rat{}, err
	}
	res, err := eng.Evaluate(engine.Task{Inst: inst, Model: cm})
	if err != nil {
		return rat.Rat{}, err
	}
	return res.Period, nil
}

// defaultEngine builds the single-call engine backing the engine-less entry
// points: a GOMAXPROCS pool with the default memo cache.
func defaultEngine() *engine.Engine { return engine.New(engine.Options{}) }

// Result is a mapping with its achieved period.
type Result struct {
	Mapping *mapping.Mapping
	Period  rat.Rat
}

// Throughput returns 1/Period.
func (r Result) Throughput() rat.Rat { return rat.One().Div(r.Period) }

// ExhaustiveOneToOne finds the best non-replicated mapping by enumerating
// all injective stage->processor assignments. Exponential: it refuses
// instances with more than maxProcsExhaustive processors.
const maxProcsExhaustive = 10

func ExhaustiveOneToOne(pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel) (Result, error) {
	return ExhaustiveOneToOneEngine(context.Background(), defaultEngine(), pipe, plat, cm)
}

// exhaustiveChunk bounds how many enumerated assignments are materialized
// before being flushed to the engine as one batch.
const exhaustiveChunk = 1024

// ExhaustiveOneToOneEngine enumerates injective assignments in
// lexicographic order, evaluates them in engine batches, and keeps the
// first assignment attaining the minimum period — the same winner the
// serial enumeration picks.
func ExhaustiveOneToOneEngine(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel) (Result, error) {
	n := pipe.NumStages()
	p := plat.NumProcs()
	if p > maxProcsExhaustive {
		return Result{}, fmt.Errorf("sched: exhaustive search limited to %d processors (got %d)", maxProcsExhaustive, p)
	}
	if n > p {
		return Result{}, fmt.Errorf("sched: %d stages need at least as many processors (got %d)", n, p)
	}
	var best Result
	chunk := make([]*mapping.Mapping, 0, exhaustiveChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		// Missing links make some assignments infeasible; evaluate the
		// feasible ones, remembering their enumeration positions.
		idx := make([]int, 0, len(chunk))
		compact := make([]engine.Task, 0, len(chunk))
		for k, mapp := range chunk {
			inst, err := model.FromMapped(pipe, plat, mapp)
			if err != nil {
				continue
			}
			idx = append(idx, k)
			compact = append(compact, engine.Task{Inst: inst, Model: cm})
		}
		// Once a best exists, assignments whose period is at least it are
		// cut (their outcome carries core.ErrCutoff and is skipped below):
		// the first-minimum winner is unchanged, since the update requires
		// a strict improvement on a best that only decreases.
		var outs []engine.Outcome
		var err error
		if best.Mapping == nil {
			outs, err = eng.EvaluateBatch(ctx, compact)
		} else {
			outs, err = eng.EvaluateBatchBelow(ctx, compact, best.Period)
		}
		if err != nil {
			return err
		}
		for j, o := range outs {
			if o.Err != nil {
				continue
			}
			if best.Mapping == nil || o.Result.Period.Less(best.Period) {
				best = Result{Mapping: chunk[idx[j]], Period: o.Result.Period}
			}
		}
		chunk = chunk[:0]
		return nil
	}
	assigned := make([]int, n)
	used := make([]bool, p)
	var rec func(stage int) error
	rec = func(stage int) error {
		if stage == n {
			replicas := make([][]int, n)
			for i, u := range assigned {
				replicas[i] = []int{u}
			}
			mapp, err := mapping.New(replicas, p)
			if err != nil {
				return err
			}
			chunk = append(chunk, mapp)
			if len(chunk) == exhaustiveChunk {
				return flush()
			}
			return nil
		}
		for u := 0; u < p; u++ {
			if used[u] {
				continue
			}
			used[u] = true
			assigned[stage] = u
			if err := rec(stage + 1); err != nil {
				return err
			}
			used[u] = false
		}
		return nil
	}
	err := rec(0)
	if err == nil {
		err = flush()
	}
	if err != nil {
		// A deadline mid-enumeration keeps the best assignment the flushed
		// chunks already found (anytime, like the other heuristics).
		if ctx.Err() != nil && best.Mapping != nil {
			return best, nil
		}
		return Result{}, err
	}
	if best.Mapping == nil {
		return Result{}, fmt.Errorf("sched: no feasible one-to-one mapping")
	}
	return best, nil
}

// Greedy builds a replicated mapping: stages first get the fastest free
// processor each; remaining processors are then handed out one by one to
// whichever stage's enlargement reduces the period the most (ties: first
// stage). Processors within a stage are kept sorted by id for determinism.
func Greedy(pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel) (Result, error) {
	return GreedyEngine(context.Background(), defaultEngine(), pipe, plat, cm)
}

// GreedyEngine is Greedy with every enlargement round evaluated as one
// engine batch: the n candidate mappings "give processor u to stage i" are
// independent, so each round parallelizes across the pool while the winner
// is still chosen by the serial rule (smallest period, first stage on ties).
func GreedyEngine(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err // canceled before any work: nothing to salvage
	}
	n := pipe.NumStages()
	p := plat.NumProcs()
	if n > p {
		return Result{}, fmt.Errorf("sched: %d stages on %d processors", n, p)
	}
	// Processors sorted by decreasing speed.
	bySpeed := make([]int, p)
	for u := range bySpeed {
		bySpeed[u] = u
	}
	sort.Slice(bySpeed, func(i, j int) bool {
		si, sj := plat.Speeds[bySpeed[i]], plat.Speeds[bySpeed[j]]
		if si != sj {
			return si > sj
		}
		return bySpeed[i] < bySpeed[j]
	})
	replicas := make([][]int, n)
	for i := 0; i < n; i++ {
		replicas[i] = []int{bySpeed[i]}
	}
	free := bySpeed[n:]
	current, err := evalReplicasEngine(eng, pipe, plat, replicas, cm)
	if err != nil {
		return Result{}, err
	}
	for len(free) > 0 {
		u := free[0]
		// One candidate per stage: enlarge stage i with processor u.
		stages := make([]int, 0, n)
		tasks := make([]engine.Task, 0, n)
		for i := 0; i < n; i++ {
			cand := cloneReplicas(replicas)
			cand[i] = append(cand[i], u)
			sort.Ints(cand[i])
			mapp, err := mapping.New(cand, p)
			if err != nil {
				continue
			}
			inst, err := model.FromMapped(pipe, plat, mapp)
			if err != nil {
				continue
			}
			stages = append(stages, i)
			tasks = append(tasks, engine.Task{Inst: inst, Model: cm})
		}
		// Enlargements whose period is at least the current one are cut:
		// bestPeriod starts at current and only decreases, so none of them
		// could win the round.
		outs, err := eng.EvaluateBatchBelow(ctx, tasks, current)
		if err != nil {
			// The partial greedy assignment is itself a feasible mapping
			// (every stage got a processor in the seeding round); a
			// deadline mid-enlargement returns it instead of failing.
			if ctx.Err() != nil {
				if mapp, merr := mapping.New(cloneReplicas(replicas), p); merr == nil {
					return Result{Mapping: mapp, Period: current}, nil
				}
			}
			return Result{}, err
		}
		bestStage := -1
		bestPeriod := current
		for j, o := range outs {
			if o.Err != nil {
				continue
			}
			if o.Result.Period.Less(bestPeriod) {
				bestPeriod = o.Result.Period
				bestStage = stages[j]
			}
		}
		if bestStage < 0 {
			break // adding this processor anywhere does not help; stop
		}
		replicas[bestStage] = append(replicas[bestStage], u)
		sort.Ints(replicas[bestStage])
		current = bestPeriod
		free = free[1:]
	}
	mapp, err := mapping.New(replicas, p)
	if err != nil {
		return Result{}, err
	}
	return Result{Mapping: mapp, Period: current}, nil
}

// RandomSearch runs restarts of randomized hill climbing: random feasible
// replica partitions, improved by single-processor moves (shift a processor
// to another stage, add an unused one, or drop one) until a local optimum,
// keeping the best mapping seen overall.
func RandomSearch(pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand, restarts, movesPerRestart int) (Result, error) {
	return RandomSearchEngine(context.Background(), defaultEngine(), pipe, plat, cm, rng, restarts, movesPerRestart)
}

// RandomSearchEngine is RandomSearch on a shared engine. Hill climbing is
// inherently sequential (each move depends on the last accepted state), so
// the walk itself is untouched — the rng stream and therefore the visited
// partitions match the serial path exactly. Overlap candidates are priced
// by a column evaluator private to the search (see walkEval), strict ones by
// the engine's memo, so partitions revisited across moves and restarts are
// computed once.
func RandomSearchEngine(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, rng *rand.Rand, restarts, movesPerRestart int) (Result, error) {
	return randomSearch(ctx, walkEval(eng, pipe, plat, cm), pipe, plat, rng, restarts, movesPerRestart)
}

// randomSearch is the hill-climbing walk with candidates priced by eval.
func randomSearch(ctx context.Context, eval func([][]int) (rat.Rat, error), pipe *pipeline.Pipeline, plat *platform.Platform, rng *rand.Rand, restarts, movesPerRestart int) (Result, error) {
	n := pipe.NumStages()
	p := plat.NumProcs()
	if n > p {
		return Result{}, fmt.Errorf("sched: %d stages on %d processors", n, p)
	}
	var best Result
	for r := 0; r < restarts; r++ {
		if err := ctx.Err(); err != nil {
			if best.Mapping != nil {
				return best, nil // anytime: keep what earlier restarts found
			}
			return Result{}, err
		}
		replicas := randomPartition(rng, n, p)
		period, err := eval(replicas)
		if err != nil {
			continue
		}
		for mv := 0; mv < movesPerRestart; mv++ {
			if err := ctx.Err(); err != nil {
				// A deadline mid-walk (the service's wall-clock budget)
				// must not discard work: fold the walk's current state —
				// already evaluated and feasible — into best before
				// deciding what to hand back.
				if mapp, merr := mapping.New(cloneReplicas(replicas), p); merr == nil {
					if best.Mapping == nil || period.Less(best.Period) {
						best = Result{Mapping: mapp, Period: period}
					}
				}
				if best.Mapping != nil {
					return best, nil
				}
				return Result{}, err
			}
			cand := neighbor(rng, replicas, n, p)
			if cand == nil {
				continue
			}
			cperiod, err := eval(cand)
			if err != nil {
				continue
			}
			if cperiod.Less(period) {
				replicas, period = cand, cperiod
			}
		}
		if best.Mapping == nil || period.Less(best.Period) {
			mapp, err := mapping.New(cloneReplicas(replicas), p)
			if err != nil {
				return Result{}, err
			}
			best = Result{Mapping: mapp, Period: period}
		}
	}
	if best.Mapping == nil {
		return Result{}, fmt.Errorf("sched: random search found no feasible mapping")
	}
	return best, nil
}

// randomPartition assigns each stage one random distinct processor, then
// scatters a random subset of the remaining ones.
func randomPartition(rng *rand.Rand, n, p int) [][]int {
	perm := rng.Perm(p)
	replicas := make([][]int, n)
	for i := 0; i < n; i++ {
		replicas[i] = []int{perm[i]}
	}
	rest := perm[n:]
	for _, u := range rest {
		if rng.Intn(2) == 0 {
			continue // leave the processor unused
		}
		i := rng.Intn(n)
		replicas[i] = append(replicas[i], u)
	}
	for i := range replicas {
		sort.Ints(replicas[i])
	}
	return replicas
}

// neighbor applies one random move and returns the new partition (or nil if
// the move was infeasible).
func neighbor(rng *rand.Rand, replicas [][]int, n, p int) [][]int {
	cand := cloneReplicas(replicas)
	used := map[int]bool{}
	for _, procs := range cand {
		for _, u := range procs {
			used[u] = true
		}
	}
	switch rng.Intn(3) {
	case 0: // move a processor from one stage to another
		from := rng.Intn(n)
		if len(cand[from]) <= 1 {
			return nil
		}
		to := rng.Intn(n)
		if to == from {
			return nil
		}
		k := rng.Intn(len(cand[from]))
		u := cand[from][k]
		cand[from] = append(cand[from][:k], cand[from][k+1:]...)
		cand[to] = append(cand[to], u)
		sort.Ints(cand[to])
	case 1: // add an unused processor to a random stage
		var freeList []int
		for u := 0; u < p; u++ {
			if !used[u] {
				freeList = append(freeList, u)
			}
		}
		if len(freeList) == 0 {
			return nil
		}
		u := freeList[rng.Intn(len(freeList))]
		i := rng.Intn(n)
		cand[i] = append(cand[i], u)
		sort.Ints(cand[i])
	default: // drop a processor from a replicated stage
		i := rng.Intn(n)
		if len(cand[i]) <= 1 {
			return nil
		}
		k := rng.Intn(len(cand[i]))
		cand[i] = append(cand[i][:k], cand[i][k+1:]...)
	}
	return cand
}

func cloneReplicas(replicas [][]int) [][]int {
	out := make([][]int, len(replicas))
	for i, r := range replicas {
		out[i] = append([]int(nil), r...)
	}
	return out
}

func evalReplicasEngine(eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, replicas [][]int, cm model.CommModel) (rat.Rat, error) {
	mapp, err := mapping.New(cloneReplicas(replicas), plat.NumProcs())
	if err != nil {
		return rat.Rat{}, err
	}
	return EvaluateEngine(eng, pipe, plat, mapp, cm)
}
