package cycles

// MaxRatioLawler approximates the maximum cycle ratio in float64 by Lawler's
// binary search: λ is feasible (too small) iff the graph with edge weights
// cost − λ·tokens contains a positive cycle. Tests and benchmarks use it as
// a float cross-check of the exact engines, which are authoritative.
func (s *System) MaxRatioLawler(tol float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if !s.hasCycle() {
		return 0, ErrNoCycle
	}
	costs := make([]float64, len(s.Cost))
	hi := 1.0
	for i, c := range s.Cost {
		costs[i] = c.Float64()
		// Any cycle ratio is at most the sum of all costs (tokens >= 1).
		hi += costs[i]
	}
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if s.hasPositiveCycleFloat(costs, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// hasPositiveCycleFloat runs Bellman–Ford longest-path rounds with weights
// cost − λ·tokens and reports whether a positive cycle exists.
func (s *System) hasPositiveCycleFloat(costs []float64, lambda float64) bool {
	n := s.G.N
	dist := make([]float64, n) // start everything at 0: detects any positive cycle
	for iter := 0; iter <= n; iter++ {
		changed := false
		for i, e := range s.G.Edges {
			w := costs[e.ID] - lambda*float64(s.Tokens[e.ID])
			_ = i
			if cand := dist[e.From] + w; cand > dist[e.To]+1e-15 {
				dist[e.To] = cand
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}
