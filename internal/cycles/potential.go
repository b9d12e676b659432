package cycles

import (
	"math/bits"

	"repro/internal/rat"
)

// RatioAtMostPlan reports whether λ ≥ λ*, the maximum cycle ratio of s, for
// p compiled from a system with s's structure. It looks for a potential π
// with π(v) ≥ π(u) + cost(e) − λ·tokens(e) on every edge u→v, which exists
// exactly when no cycle has a ratio above λ.
//
// Per plan component it relaxes longest paths from π = 0 under those
// reduced weights. A round relaxes the token edges once each, then the
// zero-token DAG in the plan's topological order, which settles every
// zero-token path in one pass. Under λ ≥ λ* every longest path may be
// taken simple, and a simple path crosses each of the nt token edges at
// most once, so it is settled after nt+1 rounds and round nt+2 changes
// nothing. Under λ < λ* some cycle has positive reduced weight and every
// round raises a potential on it. So the check returns true after the
// first round that changes nothing and false after nt+2 rounds, and true
// means λ ≥ λ* exactly. A holding check on a Table 2 net averages 2.4
// rounds.
//
// The check reads s's costs like MaxRatioPlan: on scaled int64 costs when
// scaleCosts and an overflow guard on λ·scale allow (see potentialScale),
// in exact rationals otherwise. It never returns true where MaxRatioPlan
// fails: a negative cost, a plan error (ErrDeadlock) and a plan without
// component (ErrNoCycle) come back as MaxRatioPlan reports them.
func (ws *Workspace) RatioAtMostPlan(p *Plan, s *System, lambda rat.Rat) (bool, error) {
	if err := negativeCost(s); err != nil {
		return false, err
	}
	if p.err != nil {
		return false, p.err
	}
	if len(p.comps) == 0 {
		return false, ErrNoCycle
	}
	ws.pRounds = 0
	var a, b int64
	ws.intMode = !ws.forceRat && ws.scaleCosts(s)
	if ws.intMode {
		a, b, ws.intMode = ws.potentialScale(p, s, lambda)
	}
	for i := range p.comps {
		pc := &p.comps[i]
		var ok bool
		if ws.intMode {
			ok = ws.potentialInt(s, pc, a, b)
		} else {
			ok = ws.potentialRat(s, pc, lambda)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// potentialScale decides whether the check may run on the scaled int64
// costs ws.scaleCosts left. With λ·scale = a/b in lowest terms, the reduced
// weight of edge e, times b, is the integer b·icost(e) − a·tokens(e). A
// potential only grows from 0, and after r rounds it is the weight of a
// walk that each round extends by distinct token edges and one zero-token
// path, so by at most isum scaled cost: every potential and every
// candidate lies in [−a·tokens, b·isum·(nt+3)] over nt+2 rounds. ok
// requires both ends within 2^62, so the relax loop's adds cannot overflow.
func (ws *Workspace) potentialScale(p *Plan, s *System, lambda rat.Rat) (a, b int64, ok bool) {
	x := lambda.MulInt(ws.scale)
	if x.IsBig() || x.Sign() < 0 {
		return 0, 0, false
	}
	a, b = x.Num(), x.Den()
	nt, tmax := 0, 0
	for i := range p.comps {
		pc := &p.comps[i]
		nt = max(nt, len(pc.tokenEdges))
		for _, ei := range pc.tokenEdges {
			tmax = max(tmax, s.Tokens[ei])
		}
	}
	if hi, lo := bits.Mul64(uint64(a), uint64(tmax)); hi != 0 || lo > intBound {
		return 0, 0, false
	}
	hi, lo := bits.Mul64(uint64(b), uint64(ws.isum))
	if hi != 0 {
		return 0, 0, false
	}
	if hi, lo = bits.Mul64(lo, uint64(nt+3)); hi != 0 || lo > intBound {
		return 0, 0, false
	}
	return a, b, true
}

// potentialInt is the check on one component in scaled int64 arithmetic,
// with λ·scale = a/b (see potentialScale); the potentials live in idist.
func (ws *Workspace) potentialInt(s *System, pc *planComp, a, b int64) bool {
	n, nt := pc.n, len(pc.tokenEdges)
	ws.idist = grow(ws.idist, n)
	ws.zc = grow(ws.zc, len(pc.zeroEdge))
	ws.tw = grow(ws.tw, nt)
	pi, zc, tw := ws.idist[:n], ws.zc, ws.tw
	clear(pi)
	for t, ei := range pc.zeroEdge {
		zc[t] = b * ws.icost[ei]
	}
	for j, ei := range pc.tokenEdges {
		tw[j] = b*ws.icost[ei] - a*int64(s.Tokens[ei])
	}
	start, succ := pc.zeroStart, pc.zeroSucc
	for round := 1; round <= nt+2; round++ {
		ws.pRounds++
		changed := false
		for j, h := range pc.heads {
			if cand := pi[pc.tails[j]] + tw[j]; pi[h] < cand {
				pi[h], changed = cand, true
			}
		}
		for _, u := range pc.order {
			pu := pi[u]
			for t := start[u]; t < start[u+1]; t++ {
				if cand := pu + zc[t]; pi[succ[t]] < cand {
					pi[succ[t]], changed = cand, true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// potentialRat is potentialInt in exact rationals; the potentials live in
// dist.
func (ws *Workspace) potentialRat(s *System, pc *planComp, lambda rat.Rat) bool {
	n, nt := pc.n, len(pc.tokenEdges)
	ws.dist = grow(ws.dist, n)
	ws.twRat = grow(ws.twRat, nt)
	pi, tw := ws.dist[:n], ws.twRat
	for v := range pi {
		pi[v] = rat.Zero()
	}
	for j, ei := range pc.tokenEdges {
		tw[j] = s.Cost[ei].Sub(lambda.MulInt(int64(s.Tokens[ei])))
	}
	start, succ := pc.zeroStart, pc.zeroSucc
	for round := 1; round <= nt+2; round++ {
		ws.pRounds++
		changed := false
		for j, h := range pc.heads {
			if cand := pi[pc.tails[j]].Add(tw[j]); pi[h].Less(cand) {
				pi[h], changed = cand, true
			}
		}
		for _, u := range pc.order {
			pu := pi[u]
			for t := start[u]; t < start[u+1]; t++ {
				if cand := pu.Add(s.Cost[pc.zeroEdge[t]]); pi[succ[t]].Less(cand) {
					pi[succ[t]], changed = cand, true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
