package core

import (
	"fmt"
	"sync"

	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// Solver is a stateful period-computation context: it owns every piece of
// scratch one evaluation thread needs — a tpn.Builder constructing unfolded
// nets into reused label-free storage, a cycles.System rebuilt in place, and
// a cycles.Workspace holding the contraction and Karp tables. The first
// evaluation pays the allocations; subsequent evaluations of similar size
// run with near-zero allocation churn, which is what makes the batch
// engine's fan-out of thousands of strict-model evaluations cheap.
//
// Results are bit-identical to the free functions (Period, PeriodTPN,
// PeriodOverlapPoly): the Solver changes where scratch lives, not what is
// computed.
//
// A Solver is NOT safe for concurrent use. Give each goroutine its own
// (the engine's worker pool does), or use the free functions, which draw
// from a pool of package-default solvers.
type Solver struct {
	// MaxRows caps the unfolded-TPN size for Period/PeriodTPN; 0 means the
	// package default (tpn.MaxRows = 20000). Raising it lets campaigns
	// evaluate instances with larger lcm(m_i) exactly — memory is reused
	// across evaluations, so the cost of a large net is paid once per
	// solver, not once per call.
	MaxRows int

	// Backend selects the exact maximum-cycle-ratio engine for every
	// critical-cycle computation this solver performs (the unfolded net and
	// the Theorem 1 pattern graphs alike). The zero value is
	// cycles.BackendAuto, which routes by token-edge share: Karp's
	// contracted dynamic program where token edges are sparse (every
	// unfolded TPN of this repository), Howard policy iteration where they
	// are plentiful and contraction would degenerate. All backends are
	// exact, so the Result never depends on the choice — only the running
	// time does.
	Backend cycles.Backend

	builder tpn.Builder
	ws      cycles.Workspace
	sys     cycles.System

	// Float-sweep plans per unfolded-net shape (see floatPlan).
	plans       map[string]*cycles.FloatPlan
	planSize    int
	planKey     []byte
	scratchPlan cycles.FloatPlan
}

// NewSolver returns a ready Solver with the default row cap. The zero value
// is also ready.
func NewSolver() *Solver { return &Solver{} }

// Period computes the period of the instance under the given model,
// choosing the best algorithm: the polynomial algorithm for OVERLAP, the
// general TPN method for STRICT (for which polynomiality is open, Section 6).
func (s *Solver) Period(inst *model.Instance, m model.CommModel) (Result, error) {
	if m == model.Overlap {
		return s.PeriodOverlapPoly(inst)
	}
	return s.PeriodTPN(inst, m)
}

// PeriodTPN computes the period by building the full unfolded TPN into the
// solver's reused storage and extracting its critical cycle. Works for both
// models; cost grows with m = lcm(m_i) and the builder rejects instances
// beyond the solver's row cap.
func (s *Solver) PeriodTPN(inst *model.Instance, m model.CommModel) (Result, error) {
	s.builder.MaxRows = s.MaxRows
	net, err := s.builder.Build(inst, m)
	if err != nil {
		return Result{}, err
	}
	crit, err := s.ws.MaxRatioBackend(net.SystemInto(&s.sys), s.Backend)
	if err != nil {
		return Result{}, fmt.Errorf("core: critical cycle: %w", err)
	}
	pc := inst.PathCount()
	return Result{
		Model:     m,
		Period:    crit.Ratio.DivInt(pc),
		Mct:       inst.Mct(m),
		PathCount: pc,
		Method:    MethodTPN,
	}, nil
}

// PeriodOverlapPoly computes the OVERLAP ONE-PORT period with the
// polynomial algorithm of Theorem 1, building every pattern graph into the
// solver's reused system storage. See the free PeriodOverlapPoly for the
// algorithm.
func (s *Solver) PeriodOverlapPoly(inst *model.Instance) (Result, error) {
	n := inst.NumStages()
	period := rat.Zero()
	// Computation columns.
	for i := 0; i < n; i++ {
		mi := int64(inst.Replication(i))
		for a := 0; a < inst.Replication(i); a++ {
			period = rat.Max(period, inst.CompTime(i, a).DivInt(mi))
		}
	}
	// Communication columns.
	for i := 0; i < n-1; i++ {
		col, err := s.ColumnPeriod(NewCommPattern(inst, i))
		if err != nil {
			return Result{}, err
		}
		period = rat.Max(period, col)
	}
	return Result{
		Model:     model.Overlap,
		Period:    period,
		Mct:       inst.Mct(model.Overlap),
		PathCount: inst.PathCount(),
		Method:    MethodPoly,
	}, nil
}

// ColumnPeriod is one communication column's term of Theorem 1: the largest
// component candidate maxCycleRatio(G′_g)/lcm(m_i, m_{i+1}) over the
// pattern's gcd components, each pattern graph built into the solver's
// reused system storage.
func (s *Solver) ColumnPeriod(cp CommPattern) (rat.Rat, error) {
	period := rat.Zero()
	for g := 0; g < cp.P; g++ {
		res, err := s.ws.MaxRatioBackend(cp.PatternGraphInto(g, &s.sys), s.Backend)
		if err != nil {
			return rat.Rat{}, fmt.Errorf("core: file F%d component %d: %w", cp.File, g, err)
		}
		period = rat.Max(period, res.Ratio.DivInt(cp.LCM))
	}
	return period, nil
}

// solverPool backs the package-level free functions: each call borrows a
// default-capped Solver, so even the free-function path amortizes scratch
// across calls while staying safe for concurrent callers.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}
