package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cycles"
	"repro/internal/model"
)

// PeriodApprox computes a float64 enclosure of the instance's period under
// the given model: a cycles.FloatResult whose interval [Ratio−Err,
// Ratio+Err] provably contains the exact Period that Solver.Period returns
// for the same arguments. It mirrors Period's algorithm choice — the
// polynomial pattern-graph method for OVERLAP, the unfolded TPN for STRICT —
// and its error behaviour: it fails exactly when the exact path fails, so a
// screening caller never diverges from the exact run on the error path.
//
// The enclosure is the screening tier's contract, not a fast approximate
// Period: callers discard a candidate only when its enclosure proves it
// cannot beat an exact incumbent (FloatResult.AtLeast), and evaluate
// everything else exactly. A poisoned enclosure (Err=+Inf, produced by
// overflow-scale operation times) screens nothing and costs one wasted float
// sweep — degraded speed, never a degraded answer.
func (s *Solver) PeriodApprox(inst *model.Instance, m model.CommModel) (cycles.FloatResult, error) {
	if m == model.Overlap {
		return s.periodOverlapApprox(inst)
	}
	return s.periodTPNApprox(inst, m)
}

// periodTPNApprox is PeriodTPN with the float sweep in place of the exact
// backend: same builder, same unfolded net, same system — only the final
// critical-cycle arithmetic runs in float64 with error tracking, on the
// float plan of the net's shape.
func (s *Solver) periodTPNApprox(inst *model.Instance, m model.CommModel) (cycles.FloatResult, error) {
	s.builder.MaxRows = s.MaxRows
	net, err := s.builder.Build(inst, m)
	if err != nil {
		return cycles.FloatResult{}, err
	}
	sys := net.SystemInto(&s.sys)
	crit, err := s.ws.ApproxMaxRatioPlan(s.floatPlan(inst, m, sys), sys)
	if err != nil {
		return cycles.FloatResult{}, fmt.Errorf("core: critical cycle: %w", err)
	}
	return crit.DivInt(inst.PathCount()), nil
}

// planBudget bounds the table entries (cycles.FloatPlan.Size) a Solver's
// plan cache holds; a full cache is emptied before the next insertion.
// 1<<18 entries is 2 MB, room for every replication vector of a branch
// and bound over a few stages and a dozen processors.
const planBudget = 1 << 18

// floatPlan returns the float-sweep plan for sys, the unfolded net of inst
// under m. The net's places, hence sys's edges, depend only on the model and
// the replication counts (tpn.Builder), so plans are cached under that key
// and the leaves of a search that share a replication vector pay the
// structural work (liveness, SCCs, contraction scaffold, Karp SCCs) once.
// A plan larger than the budget is compiled into reused scratch instead.
func (s *Solver) floatPlan(inst *model.Instance, m model.CommModel, sys *cycles.System) *cycles.FloatPlan {
	key := append(s.planKey[:0], byte(m))
	for i := 0; i < inst.NumStages(); i++ {
		key = binary.AppendUvarint(key, uint64(inst.Replication(i)))
	}
	s.planKey = key
	if p, ok := s.plans[string(key)]; ok {
		return p
	}
	s.ws.CompileFloat(sys, &s.scratchPlan)
	size := s.scratchPlan.Size()
	if size > planBudget {
		return &s.scratchPlan
	}
	p := new(cycles.FloatPlan)
	*p, s.scratchPlan = s.scratchPlan, cycles.FloatPlan{} // the cache takes the storage
	if s.plans == nil || s.planSize+size > planBudget {
		s.plans = make(map[string]*cycles.FloatPlan)
		s.planSize = 0
	}
	s.plans[string(key)] = p
	s.planSize += size
	return p
}

// periodOverlapApprox is PeriodOverlapPoly in float64: the running maximum
// over computation columns and pattern-graph ratios becomes a MaxFloat merge
// of enclosures, each division carrying its bound along.
func (s *Solver) periodOverlapApprox(inst *model.Instance) (cycles.FloatResult, error) {
	n := inst.NumStages()
	period := cycles.FloatResult{} // exact zero, like rat.Zero()
	for i := 0; i < n; i++ {
		mi := int64(inst.Replication(i))
		for a := 0; a < inst.Replication(i); a++ {
			period = cycles.MaxFloat(period, cycles.FloatOf(inst.CompTime(i, a)).DivInt(mi))
		}
	}
	for i := 0; i < n-1; i++ {
		pat := NewCommPattern(inst, i)
		for g := 0; g < pat.P; g++ {
			res, err := s.ws.ApproxMaxRatio(pat.PatternGraphInto(g, &s.sys))
			if err != nil {
				return cycles.FloatResult{}, fmt.Errorf("core: file F%d component %d: %w", i, g, err)
			}
			period = cycles.MaxFloat(period, res.DivInt(pat.LCM))
		}
	}
	return period, nil
}
