package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// Solver is a stateful period-computation context: it owns every piece of
// scratch one evaluation thread needs — a tpn.Builder constructing unfolded
// nets into reused label-free storage, a cycles.System rebuilt in place, a
// cycles.Workspace holding the potential check's tables, and a bounded
// cache of compiled plans per net shape. The first evaluation pays the
// allocations; subsequent evaluations of similar size run with near-zero
// allocation churn, which is what makes the batch engine's fan-out of
// thousands of strict-model evaluations cheap.
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
	// cycles.BackendAuto, which routes by token-edge share: cycle iteration
	// on the compiled plan where token edges are sparse (every unfolded TPN
	// of this repository), Howard policy iteration where they are
	// plentiful. cycles.BackendKarp ("karp") is the name the plan route
	// keeps from the Karp engine it replaced. All backends are exact, so
	// the Result never depends on the choice — only the running time does.
	Backend cycles.Backend

	builder tpn.Builder
	ws      cycles.Workspace
	sys     cycles.System

	// Compiled plans per unfolded-net shape (see plan), read by the cycle
	// iteration of PeriodTPN.
	plans    map[string]*cycles.Plan
	planSize int
	planKey  []byte
}

// NewSolver returns a ready Solver with the default row cap. The zero value
// is also ready.
func NewSolver() *Solver { return &Solver{} }

// Period computes the period of the instance under the given model,
// choosing the best algorithm: the polynomial algorithm for OVERLAP, the
// general TPN method for STRICT (for which polynomiality is open, Section 6).
func (s *Solver) Period(inst *model.Instance, m model.CommModel) (Result, error) {
	return s.period(inst, m, inst.Mct(m), cutoff{})
}

// ErrCutoff is PeriodBelow's answer for an instance whose period is at
// least the cutoff; no Result comes with it.
var ErrCutoff = errors.New("core: period at or above the cutoff")

// PeriodBelow is Period with an exact cutoff: it returns Period's Result
// when the period is below ref, and ErrCutoff exactly when the period is at
// least ref. It is the same computation, stopped as soon as P ≥ ref is
// proven:
//
//   - Mct ≥ ref cuts before anything is built, since P ≥ Mct (Section 2);
//   - on the unfolded net, cycle iteration from Mct·m stops at the first
//     cycle it finds whose ratio reaches ref·m;
//   - Theorem 1's column loop stops at the first column that reaches ref.
//
// An instance cut by Mct is cut even where Period would fail (on a net
// beyond the row cap, say). Search layers call it with their incumbent: a
// candidate that cannot strictly improve on it costs the least work that
// proves so.
func (s *Solver) PeriodBelow(inst *model.Instance, m model.CommModel, ref rat.Rat) (Result, error) {
	return s.PeriodBelowMct(inst, m, inst.Mct(m), ref)
}

// PeriodBelowMct is PeriodBelow for a caller that holds mct = inst.Mct(m)
// already, as the engine does once it has compared it with ref.
func (s *Solver) PeriodBelowMct(inst *model.Instance, m model.CommModel, mct, ref rat.Rat) (Result, error) {
	return s.period(inst, m, mct, cutoff{ref: ref, on: true})
}

// cutoff is PeriodBelow's reference; the zero value cuts nothing.
type cutoff struct {
	ref rat.Rat
	on  bool
}

// reached reports whether a period of p is cut: the cutoff is on and
// p ≥ ref.
func (c cutoff) reached(p rat.Rat) bool { return c.on && !p.Less(c.ref) }

// apply turns a computed period at or above the cutoff into ErrCutoff.
func (c cutoff) apply(res Result, err error) (Result, error) {
	if err == nil && c.reached(res.Period) {
		return Result{}, ErrCutoff
	}
	return res, err
}

// period dispatches on the model; mct is inst.Mct(m).
func (s *Solver) period(inst *model.Instance, m model.CommModel, mct rat.Rat, c cutoff) (Result, error) {
	if c.reached(mct) {
		return Result{}, ErrCutoff
	}
	if m == model.Overlap {
		return s.periodOverlap(inst, mct, c)
	}
	return s.periodTPN(inst, m, mct, c)
}

// PeriodTPN computes the period by building the full unfolded TPN into the
// solver's reused storage and extracting its critical cycle. On the plan
// route, cycle iteration starts at Mct·m, so whenever a resource is
// critical one potential check proves the period equal to Mct.
// Works for both models; cost grows with m = lcm(m_i) and the builder
// rejects instances beyond the solver's row cap.
func (s *Solver) PeriodTPN(inst *model.Instance, m model.CommModel) (Result, error) {
	return s.periodTPN(inst, m, inst.Mct(m), cutoff{})
}

// periodTPN is PeriodTPN under a cutoff; mct is inst.Mct(m).
func (s *Solver) periodTPN(inst *model.Instance, m model.CommModel, mct rat.Rat, c cutoff) (Result, error) {
	s.builder.MaxRows = s.MaxRows
	net, err := s.builder.Build(inst, m)
	if err != nil {
		return Result{}, err
	}
	sys := net.SystemInto(&s.sys)
	var crit cycles.Result
	if s.Backend.Resolve(sys) == cycles.BackendHoward {
		crit, err = s.ws.MaxRatioHoward(sys)
		return c.apply(tpnResult(inst, m, mct, crit, err))
	}
	// Some resource cycle of the net reaches Mct, so λ* ≥ Mct·m always:
	// cycle iteration starts there. When a resource is critical the first
	// potential check holds and no cycle is sought; under a cutoff the
	// iteration stops at the first cycle that reaches ref·m.
	p := s.plan(inst, m, sys)
	pc := inst.PathCount()
	lo := mct.MulInt(pc)
	if c.on {
		crit, err = s.ws.MaxRatioBelow(p, sys, lo, c.ref.MulInt(pc))
		if errors.Is(err, cycles.ErrRatioReached) {
			return Result{}, ErrCutoff
		}
	} else {
		crit, err = s.ws.MaxRatioFrom(p, sys, lo)
	}
	return c.apply(tpnResult(inst, m, mct, crit, err))
}

// PeriodOverlapPoly computes the OVERLAP ONE-PORT period with the
// polynomial algorithm of Theorem 1, building every pattern graph into the
// solver's reused system storage. See the free PeriodOverlapPoly for the
// algorithm.
func (s *Solver) PeriodOverlapPoly(inst *model.Instance) (Result, error) {
	return s.periodOverlap(inst, inst.Mct(model.Overlap), cutoff{})
}

// periodOverlap is PeriodOverlapPoly under a cutoff; mct is
// inst.Mct(model.Overlap). A computation column is some resource's cycle
// time, at most mct, so only the communication columns can reach the
// cutoff.
func (s *Solver) periodOverlap(inst *model.Instance, mct rat.Rat, c cutoff) (Result, error) {
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
		if c.reached(period) {
			return Result{}, ErrCutoff
		}
	}
	return Result{
		Model:     model.Overlap,
		Period:    period,
		Mct:       mct,
		PathCount: inst.PathCount(),
		Method:    MethodPoly,
	}, nil
}

// ColumnPeriod is one communication column's term of Theorem 1: the largest
// component candidate maxCycleRatio(G′_g)/lcm(m_i, m_{i+1}) over the
// pattern's gcd components, each pattern graph built into the solver's
// reused system storage. On the plan route, cycle iteration starts at the
// graph's heaviest port circuit (portBound).
func (s *Solver) ColumnPeriod(cp CommPattern) (rat.Rat, error) {
	period := rat.Zero()
	for g := 0; g < cp.P; g++ {
		sys := cp.PatternGraphInto(g, &s.sys)
		var res cycles.Result
		var err error
		if s.Backend.Resolve(sys) == cycles.BackendHoward {
			res, err = s.ws.MaxRatioHoward(sys)
		} else {
			res, err = s.ws.MaxRatioFrom(s.ws.Compile(sys), sys, cp.portBound(sys))
		}
		if err != nil {
			return rat.Rat{}, fmt.Errorf("core: file F%d component %d: %w", cp.File, g, err)
		}
		period = rat.Max(period, res.Ratio.DivInt(cp.LCM))
	}
	return period, nil
}

// planBudget bounds the table entries (cycles.Plan.Size) a Solver's plan
// cache holds; a full cache is emptied before the next insertion.
// 1<<18 entries is 2 MB, room for every replication vector of a branch
// and bound over a few stages and a dozen processors. planMax bounds one
// cached plan: such a search's vectors stay below it ((3,4,5) takes about
// 1,900 entries), while the largest nets, the m = 2520 ones (over 110,000),
// seldom repeat, so caching them would only churn the cache. On one Table 2
// grid pass 10 of the 597 compiles exceed planMax.
const (
	planBudget = 1 << 18
	planMax    = planBudget / 32
)

// plan returns the compiled plan for sys, the unfolded net of inst under m.
// The net's places, hence sys's edges, depend only on the model and the
// replication counts (tpn.Builder), so plans are cached under that key, and
// the evaluations that share a replication vector pay the structural work
// (liveness, cyclicity, the zero-token DAG and its order) once. A plan
// larger than planMax stays in the workspace's scratch.
func (s *Solver) plan(inst *model.Instance, m model.CommModel, sys *cycles.System) *cycles.Plan {
	key := append(s.planKey[:0], byte(m))
	for i := 0; i < inst.NumStages(); i++ {
		key = binary.AppendUvarint(key, uint64(inst.Replication(i)))
	}
	s.planKey = key
	if p, ok := s.plans[string(key)]; ok {
		return p
	}
	p := s.ws.Compile(sys)
	size := p.Size()
	if size > planMax {
		return p
	}
	p = p.Compact()
	if s.plans == nil || s.planSize+size > planBudget {
		s.plans = make(map[string]*cycles.Plan)
		s.planSize = 0
	}
	s.plans[string(key)] = p
	s.planSize += size
	return p
}

// solverPool backs the package-level free functions: each call borrows a
// default-capped Solver, so even the free-function path amortizes scratch
// across calls while staying safe for concurrent callers.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}
