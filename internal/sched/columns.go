package sched

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// columnMemoEntries bounds one search's column memo. The service puts no
// cap on restarts, moves or annealing steps, so the memo must not grow with
// them; the default best-of search touches a few hundred distinct columns.
const columnMemoEntries = 1 << 12

// columnHits and columnSolves count column-memo lookups over every search
// of the process: a hit reuses a column, a solve builds its pattern graphs.
var columnHits, columnSolves atomic.Int64

// walkEval returns how the rng-coupled walks price a candidate replica
// partition. Strict candidates go through the engine. Overlap candidates go
// through a column evaluator private to the search, which answers what the
// engine would (the same period, an error exactly when it errs) without
// building an instance per candidate.
func walkEval(eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel) func([][]int) (rat.Rat, error) {
	if cm == model.Overlap {
		return newColumnEvaluator(eng.Backend(), pipe, plat).period
	}
	return func(replicas [][]int) (rat.Rat, error) {
		return evalReplicasEngine(eng, pipe, plat, replicas, cm)
	}
}

// columnEvaluator computes overlap periods by Theorem 1 as a maximum over
// columns. A computation column depends on one stage's replica list; a
// communication column on the lists of stages i and i+1 only, so its value
// is memoized by (i, S_i, S_{i+1}) and a one-processor move re-solves at
// most the two columns it touched. Keys keep list order, which is
// round-robin order.
type columnEvaluator struct {
	pipe   *pipeline.Pipeline
	plat   *platform.Platform
	err    error // the pipeline's or platform's validation error
	solver core.Solver
	memo   *clock.Cache[string, column]
	key    []byte
	counts []int64
}

// column is one communication column's memoized outcome.
type column struct {
	period rat.Rat
	err    error
	link   bool // err is a missing link, which model.FromMapped reports first
}

func newColumnEvaluator(backend cycles.Backend, pipe *pipeline.Pipeline, plat *platform.Platform) *columnEvaluator {
	e := &columnEvaluator{pipe: pipe, plat: plat, memo: clock.New[string, column](columnMemoEntries)}
	e.solver.Backend = backend
	if e.err = pipe.Validate(); e.err == nil {
		e.err = plat.Validate()
	}
	return e
}

// period returns core.Period(model.FromMapped(pipe, plat, replicas),
// model.Overlap)'s period, and fails exactly when that would, with the
// error FromMapped checks first: the pipeline, the platform, the mapping,
// the stage count, the links in file order, the path count, then the
// pattern graphs.
func (e *columnEvaluator) period(replicas [][]int) (rat.Rat, error) {
	if e.err != nil {
		return rat.Rat{}, e.err
	}
	if err := (&mapping.Mapping{Replicas: replicas}).Validate(e.plat.NumProcs()); err != nil {
		return rat.Rat{}, err
	}
	n := e.pipe.NumStages()
	if len(replicas) != n {
		return rat.Rat{}, fmt.Errorf("model: mapping has %d stages, pipeline has %d", len(replicas), n)
	}
	period := rat.Zero()
	var solveErr error
	for i := 0; i < n-1; i++ {
		col := e.column(i, replicas[i], replicas[i+1])
		switch {
		case col.link:
			return rat.Rat{}, col.err
		case col.err != nil:
			if solveErr == nil {
				solveErr = col.err
			}
		default:
			period = rat.Max(period, col.period)
		}
	}
	e.counts = e.counts[:0]
	for _, procs := range replicas {
		e.counts = append(e.counts, int64(len(procs)))
	}
	if _, ok := rat.LCMAllChecked(e.counts); !ok {
		return rat.Rat{}, fmt.Errorf("model: path count lcm(m_0..m_%d) overflows int64", n-1)
	}
	if solveErr != nil {
		return rat.Rat{}, solveErr
	}
	// Computation columns: max_a (w_i/Π_a)/m_i, which the slowest replica
	// attains.
	for i, procs := range replicas {
		slow := procs[0]
		for _, u := range procs[1:] {
			if e.plat.Speeds[u] < e.plat.Speeds[slow] {
				slow = u
			}
		}
		period = rat.Max(period, e.plat.ComputeTime(e.pipe.Stages[i].Work, slow).DivInt(int64(len(procs))))
	}
	return period, nil
}

// column returns communication column i, from the memo or solved.
func (e *columnEvaluator) column(i int, senders, receivers []int) column {
	k := binary.AppendUvarint(e.key[:0], uint64(i))
	k = binary.AppendUvarint(k, uint64(len(senders)))
	for _, u := range senders {
		k = binary.AppendUvarint(k, uint64(u))
	}
	for _, v := range receivers {
		k = binary.AppendUvarint(k, uint64(v))
	}
	e.key = k
	if col, ok := e.memo.Get(string(k)); ok {
		columnHits.Add(1)
		return col
	}
	columnSolves.Add(1)
	col := e.solve(i, senders, receivers)
	e.memo.Put(string(k), col)
	return col
}

func (e *columnEvaluator) solve(i int, senders, receivers []int) column {
	for _, u := range senders {
		for _, v := range receivers {
			if !e.plat.HasLink(u, v) {
				return column{err: fmt.Errorf("model: mapping requires missing link P%d -> P%d for file F%d", u, v, i), link: true}
			}
		}
	}
	p, err := e.solver.ColumnPeriod(core.NewReplicaPattern(e.plat, i, e.pipe.FileSizes[i], senders, receivers))
	return column{period: p, err: err}
}
