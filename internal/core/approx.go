package core

import (
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
// backend: same builder, same unfolded net, same system, same cached plan —
// only the final critical-cycle arithmetic runs in float64 with error
// tracking.
func (s *Solver) periodTPNApprox(inst *model.Instance, m model.CommModel) (cycles.FloatResult, error) {
	s.builder.MaxRows = s.MaxRows
	net, err := s.builder.Build(inst, m)
	if err != nil {
		return cycles.FloatResult{}, err
	}
	sys := net.SystemInto(&s.sys)
	crit, err := s.ws.ApproxMaxRatioPlan(s.plan(inst, m, sys), sys)
	if err != nil {
		return cycles.FloatResult{}, fmt.Errorf("core: critical cycle: %w", err)
	}
	return crit.DivInt(inst.PathCount()), nil
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
