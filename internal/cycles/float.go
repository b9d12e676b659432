package cycles

import (
	"math"

	"repro/internal/rat"
)

// This file is the float-screening tier (Backend float-screen): the
// contraction + Karp sweep in float64, over the Plan the exact sweep reads,
// returning an approximate maximum cycle ratio TOGETHER with a rigorous
// forward-error bound. The point is not the approximation — it is the
// certificate attached to it: the exact ratio provably lies in
// [Ratio-Err, Err+Ratio], so a caller ranking candidates can
// discard in float everything whose enclosure cannot beat an exact incumbent
// and pay exact arithmetic only for the ambiguous band. Every discard is
// justified by an exact-rational comparison of enclosure endpoints (floats
// convert to rationals losslessly), so screened searches return bit-identical
// results to exact-only runs.
//
// Error accounting: each value carries a running absolute bound e with
// |float - exact| <= e.
//
//   - Conversion rat -> float64 is correctly rounded (big.Rat) or three
//     correctly-rounded ops (int64 fast path), so e0 = 4u|f| + eta over-covers
//     it, with u = 2^-53 the unit roundoff and eta = 2^-1074 the smallest
//     positive denormal (the additive term covers the denormal range, where
//     relative bounds fail).
//   - A correctly-rounded op c = fl(a op b) adds at most u|c| + eta of its
//     own, so e_c = e_a + e_b + u|c| + eta.
//   - Selections compose for free: |max_i f_i - max_i x_i| <= max_i e_i (and
//     the same for min) — errors do not compound through the max/min choices
//     the DP makes, which is why a full Karp table stays at a few ulps.
//   - The bound arithmetic itself rounds, so every accumulation is inflated
//     by (1+2^-50) + 2*eta (see propagate); the inflation strictly dominates
//     the handful of roundings each accumulation performs.
//
// Any non-finite intermediate (overflow to +Inf, NaN from Inf-Inf in the
// Karp difference) poisons the result to Err=+Inf: an always-ambiguous
// enclosure that no screen can act on, so callers fall back to exact
// arithmetic — degraded speed, never a degraded answer.

const (
	uRound = 0x1p-53   // float64 unit roundoff
	etaSub = 0x1p-1074 // smallest positive denormal
	// errInflate compensates the rounding of the error-bound arithmetic
	// itself: each accumulation performs at most a handful of correctly
	// rounded ops on non-negative values, under-approximating by < 8u
	// relative, so multiplying by (1+2^-50) = (1+8u) restores a true upper
	// bound.
	errInflate = 1 + 0x1p-50
)

// propagate returns an error bound for a correctly-rounded binary operation
// with result c whose operands carried bounds ea and eb: a float upper bound
// on ea + eb + u|c| + eta that survives being computed in floating point.
func propagate(ea, eb, c float64) float64 {
	return (ea+eb+uRound*math.Abs(c))*errInflate + 2*etaSub
}

// FloatResult is an approximate maximum cycle ratio (or period) with a
// rigorous forward-error bound: the exact value λ* satisfies
// |Ratio − λ*| ≤ Err. A non-finite Ratio or Err means the float sweep
// overflowed or degenerated; the enclosure is then vacuous (Contains is
// always true, AtLeast always false) and callers must fall back to the exact
// engines.
type FloatResult struct {
	Ratio float64
	Err   float64
}

// Finite reports whether the enclosure is usable (both fields finite).
func (r FloatResult) Finite() bool {
	return !math.IsInf(r.Ratio, 0) && !math.IsNaN(r.Ratio) &&
		!math.IsInf(r.Err, 0) && !math.IsNaN(r.Err)
}

// Enclosure returns the exact rational interval [lo, hi] = [Ratio−Err,
// Ratio+Err] guaranteed to contain the exact value. Both endpoints are
// computed in exact arithmetic (floats are dyadic rationals), so no further
// rounding widens or — worse — narrows the interval. ok is false for a
// non-finite result, which encloses nothing usefully.
func (r FloatResult) Enclosure() (lo, hi rat.Rat, ok bool) {
	v, ok1 := rat.FromFloat(r.Ratio)
	e, ok2 := rat.FromFloat(r.Err)
	if !ok1 || !ok2 {
		return rat.Rat{}, rat.Rat{}, false
	}
	return v.Sub(e), v.Add(e), true
}

// Contains reports whether the enclosure contains the exact value x. A
// non-finite result contains everything (vacuously): it constrains nothing.
func (r FloatResult) Contains(x rat.Rat) bool {
	lo, hi, ok := r.Enclosure()
	if !ok {
		return true
	}
	return !x.Less(lo) && !hi.Less(x)
}

// AtLeast reports that the exact value is certainly ≥ x: the enclosure's
// lower endpoint is at or above x, compared in exact arithmetic. This is the
// screening predicate — a candidate whose period is AtLeast the incumbent
// cannot strictly improve it, so skipping its exact evaluation provably
// leaves the search result unchanged. A non-finite result returns false: a
// poisoned screen can never discard a candidate.
//
// The comparison is decided in float64 whenever the gap between the two
// sides clears 2^-40 of their magnitude, far above what rounding can move
// them: lo = fl(Ratio−Err) is within u|lo| of the true endpoint (exact if
// it underflows) and x.Float64() of an int64 x within 3u(1+8u)|x| of x
// (see rat.Rat.Float64), so a wider gap has the sign of the exact one.
// Only a near tie, or a big x, forms the exact endpoint.
func (r FloatResult) AtLeast(x rat.Rat) bool {
	if !r.Finite() {
		return false
	}
	if !x.IsBig() {
		lo, xf := r.Ratio-r.Err, x.Float64()
		gap, tol := lo-xf, 0x1p-40*(math.Abs(lo)+math.Abs(xf))
		if gap > tol {
			return true
		}
		if -gap > tol {
			return false
		}
	}
	lo, _, ok := r.Enclosure()
	return ok && !lo.Less(x)
}

// DivInt returns the enclosure scaled by 1/m (m > 0), the float analogue of
// Rat.DivInt used when a cycle ratio becomes a period (division by the path
// count or a pattern LCM). An m too large to round-trip through float64
// poisons the result rather than silently losing precision.
func (r FloatResult) DivInt(m int64) FloatResult {
	f := float64(m)
	if m <= 0 || int64(f) != m {
		return poisoned()
	}
	q := r.Ratio / f
	return FloatResult{Ratio: q, Err: propagate(r.Err/f, 0, q)}
}

// FloatOf returns a float enclosure of the exact value x: its nearest
// float64 with the conversion-error bound. Values beyond float64 range
// poison to Err=+Inf.
func FloatOf(x rat.Rat) FloatResult {
	f := x.Float64()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return FloatResult{Ratio: f, Err: math.Inf(1)}
	}
	return FloatResult{Ratio: f, Err: convErr(f)}
}

// convErr bounds the rat->float64 conversion error of a value whose nearest
// float is f: 4u|f| + eta, inflated against the bound's own rounding.
func convErr(f float64) float64 {
	return (4*uRound*math.Abs(f))*errInflate + 2*etaSub
}

// MaxFloat merges two enclosures into one containing max(x_a, x_b) of the
// exact values: float max of the estimates, max of the bounds (selection
// lemma — the max over approximations deviates from the max over exact
// values by at most the worst per-candidate error). A poisoned operand
// (Err=+Inf) poisons the merge, as it must: the unknown value could dominate.
func MaxFloat(a, b FloatResult) FloatResult {
	r := a
	if b.Ratio > r.Ratio || math.IsNaN(b.Ratio) {
		r.Ratio = b.Ratio
	}
	if b.Err > r.Err || math.IsNaN(b.Err) {
		r.Err = b.Err
	}
	return r
}

// poisoned is the vacuous enclosure returned when the float sweep cannot
// bound its own error.
func poisoned() FloatResult { return FloatResult{Ratio: math.Inf(1), Err: math.Inf(1)} }

// ApproxMaxRatio runs the float-screening sweep on the workspace's reused
// scratch: it compiles s's Plan, the one the exact sweep reads, and
// evaluates it with ApproxMaxRatioPlan — same SCCs, same local numbering,
// same DAG orders, with flat float64 tables in place of the exact ones and a
// parallel running error bound per table entry. The returned enclosure
// always contains the exact MaxRatio/MaxRatioHoward ratio; structural
// failures (ErrNoCycle, ErrDeadlock, negative costs) are reported exactly as
// the exact engines report them, so a screened caller sees errors if and
// only if an exact caller would.
func (ws *Workspace) ApproxMaxRatio(s *System) (FloatResult, error) {
	return ws.ApproxMaxRatioPlan(ws.Compile(s), s)
}

// ApproxMaxRatioPlan evaluates p, compiled from a system with s's
// structure, on s's costs: the enclosure ApproxMaxRatio(s) returns, bit for
// bit, and its errors. Only the value arithmetic runs.
func (ws *Workspace) ApproxMaxRatioPlan(p *Plan, s *System) (FloatResult, error) {
	if err := negativeCost(s); err != nil {
		return FloatResult{}, err
	}
	if p.err != nil {
		return FloatResult{}, p.err
	}
	var best FloatResult
	found := false
	for i := range p.comps {
		r, ok := ws.approxComp(s, &p.comps[i])
		if !ok {
			continue
		}
		if !found {
			best, found = r, true
		} else {
			best = MaxFloat(best, r)
		}
	}
	if !found {
		return FloatResult{}, ErrNoCycle
	}
	if !best.Finite() {
		return poisoned(), nil
	}
	return best, nil
}

// approxComp is sweep in float64: identical structure and iteration
// orders, float tables, running error bounds, no witness reconstruction.
func (ws *Workspace) approxComp(s *System, pc *planComp) (FloatResult, bool) {
	n, nz := pc.n, len(pc.zeroEdge)

	// Convert the zero edges' costs once: the DAG DP reads each up to once
	// per token edge, from arrays parallel to the CSR items.
	ws.fzc = grow(ws.fzc, nz)
	ws.fze = grow(ws.fze, nz)
	for t, ei := range pc.zeroEdge {
		f := s.Cost[ei].Float64()
		ws.fzc[t], ws.fze[t] = f, convErr(f)
	}

	// Longest zero-token path DP per token edge, mirroring the exact sweep.
	// All values are non-negative, so overflow surfaces as +Inf and sticks
	// through max (never NaN here); the Karp stage below detects it.
	ws.fdist = grow(ws.fdist, n)
	ws.fderr = grow(ws.fderr, n)
	ws.has = grow(ws.has, n)
	ws.fce = grow(ws.fce, len(pc.cedges))
	ws.fceErr = grow(ws.fceErr, len(pc.cedges))
	for pos, head := range pc.heads {
		clear(ws.has[:n])
		ws.has[head] = true
		ws.fdist[head], ws.fderr[head] = 0, 0
		for _, u := range pc.order[pc.orderPos[head]:] {
			if !ws.has[u] {
				continue
			}
			for t := pc.zeroStart[u]; t < pc.zeroStart[u+1]; t++ {
				to := pc.zeroSucc[t]
				cand := ws.fdist[u] + ws.fzc[t]
				cerr := propagate(ws.fderr[u], ws.fze[t], cand)
				if !ws.has[to] {
					ws.fdist[to], ws.fderr[to] = cand, cerr
					ws.has[to] = true
					continue
				}
				// Selection lemma: the running max keeps the max estimate and
				// the max bound over ALL candidates — also the losing ones,
				// whose exact counterpart could still be the exact max.
				if cand > ws.fdist[to] {
					ws.fdist[to] = cand
				}
				if cerr > ws.fderr[to] {
					ws.fderr[to] = cerr
				}
			}
		}
		tc := s.Cost[pc.tokenEdges[pos]].Float64()
		tcErr := convErr(tc)
		for k := pc.cstart[pos]; k < pc.cstart[pos+1]; k++ {
			v := pc.cedges[k].v
			cost := tc + ws.fdist[v]
			ws.fce[k], ws.fceErr[k] = cost, propagate(tcErr, ws.fderr[v], cost)
		}
	}

	var best FloatResult
	found := false
	for i := range pc.karp {
		r, ok := ws.floatKarp(&pc.karp[i])
		if !ok {
			continue
		}
		if !found {
			best, found = r, true
		} else {
			best = MaxFloat(best, r)
		}
	}
	return best, found
}

// floatKarp runs Karp's recurrence in float64 on one SCC of the expanded
// contracted graph. The reachability structure (kHas) is value-independent,
// so the candidate set of the λ formula matches the exact sweep's exactly;
// only the arithmetic differs. Non-finite candidates — the one place Inf-Inf
// can manufacture a NaN — poison the component.
func (ws *Workspace) floatKarp(kc *karpComp) (FloatResult, bool) {
	n := kc.n
	ws.fkc = grow(ws.fkc, len(kc.hops))
	ws.fke = grow(ws.fke, len(kc.hops))
	for j, h := range kc.hops {
		ws.fkc[j], ws.fke[j] = 0, 0
		if h.ce >= 0 {
			ws.fkc[j], ws.fke[j] = ws.fce[h.ce], ws.fceErr[h.ce]
		}
	}
	size := (n + 1) * n
	ws.fkD = grow(ws.fkD, size)
	ws.fkErr = grow(ws.fkErr, size)
	ws.kHas = grow(ws.kHas, size)
	clear(ws.kHas[:size])
	ws.kHas[0] = true
	ws.fkD[0], ws.fkErr[0] = 0, 0
	for k := 1; k <= n; k++ {
		row, prev := k*n, (k-1)*n
		for j := range kc.hops {
			h := &kc.hops[j]
			u, v := prev+h.from, row+h.to
			if !ws.kHas[u] {
				continue
			}
			cand := ws.fkD[u] + ws.fkc[j]
			cerr := propagate(ws.fkErr[u], ws.fke[j], cand)
			if !ws.kHas[v] {
				ws.fkD[v], ws.fkErr[v] = cand, cerr
				ws.kHas[v] = true
				continue
			}
			if cand > ws.fkD[v] {
				ws.fkD[v] = cand
			}
			if cerr > ws.fkErr[v] {
				ws.fkErr[v] = cerr
			}
		}
	}

	// λ* = max_v min_k (D[n][v]-D[k][v])/(n-k), errors max-merged through
	// both selections.
	found := false
	var best FloatResult
	last := n * n
	for v := 0; v < n; v++ {
		if !ws.kHas[last+v] {
			continue
		}
		var inner FloatResult
		innerSet := false
		for k := 0; k < n; k++ {
			if !ws.kHas[k*n+v] {
				continue
			}
			diff := ws.fkD[last+v] - ws.fkD[k*n+v]
			derr := propagate(ws.fkErr[last+v], ws.fkErr[k*n+v], diff)
			div := float64(n - k)
			q := diff / div
			qerr := propagate(derr/div, 0, q)
			if math.IsNaN(q) || math.IsInf(q, 0) || math.IsNaN(qerr) || math.IsInf(qerr, 0) {
				return poisoned(), true
			}
			if !innerSet {
				inner, innerSet = FloatResult{q, qerr}, true
				continue
			}
			if q < inner.Ratio {
				inner.Ratio = q
			}
			if qerr > inner.Err {
				inner.Err = qerr
			}
		}
		if !innerSet {
			continue
		}
		if !found {
			best, found = inner, true
		} else {
			best = MaxFloat(best, inner)
		}
	}
	if !found {
		return FloatResult{}, false
	}
	return best, true
}
