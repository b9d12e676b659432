package cycles

import (
	"repro/internal/rat"
)

// MaxRatioBrute enumerates every elementary cycle (EnumerateElementaryCycles)
// and returns the maximum cost/token ratio. Exponential; only for small
// graphs, the ground truth of the engine cross-checks and of the tiny
// hand-worked examples of the paper.
func (s *System) MaxRatioBrute() (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	var (
		found bool
		best  rat.Rat
		bestC []int
	)
	consider := func(cycle []int) error {
		r, err := s.CycleRatio(cycle)
		if err != nil {
			return err
		}
		if !found || best.Less(r) {
			best = r
			bestC = append([]int(nil), cycle...)
			found = true
		}
		return nil
	}
	if err := s.EnumerateElementaryCycles(consider); err != nil {
		return Result{}, err
	}
	if !found {
		return Result{}, ErrNoCycle
	}
	return Result{Ratio: best, Cycle: bestC}, nil
}
