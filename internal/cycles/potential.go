package cycles

import (
	"errors"
	"math/bits"
	"slices"

	"repro/internal/rat"
)

// ErrRatioReached is MaxRatioBelow's answer when a cycle of the system
// reaches the cutoff ratio: λ* ≥ ref, and no Result comes with it.
var ErrRatioReached = errors.New("cycles: a cycle reaches the cutoff ratio")

// MaxRatioPlan evaluates p, compiled from a system with s's structure, on
// s's costs: the maximum cycle ratio by cycle iteration from 0 (see
// MaxRatioFrom), with a critical cycle as witness. When no cycle has a
// positive cost, so that the check holds at 0 at once, the witness comes
// from the tight subgraph at λ* = 0 instead.
//
// The witness aliases the workspace's scratch and stays valid until the
// next evaluation on ws; Workspace.MaxRatio returns a copy.
func (ws *Workspace) MaxRatioPlan(p *Plan, s *System) (Result, error) {
	res, err := ws.MaxRatioFrom(p, s, rat.Zero())
	if err == nil && res.Cycle == nil {
		res.Cycle = s.tightCycleWitness(res.Ratio)
	}
	return res, err
}

// MaxRatioFrom computes the maximum cycle ratio λ* of s, for p compiled
// from a system with s's structure, by cycle iteration from lo, a ratio
// that some cycle of s attains (so lo ≤ λ*; a caller without one passes 0,
// which every system with non-negative costs admits).
//
// It runs the potential check of RatioAtMostPlan at the current λ. The
// check's relaxation keeps each vertex's last improving edge, and after
// every round but the first it looks for a cycle in that predecessor
// graph (closedCycle). Updates happen only on strict improvement, so every such cycle C
// has a positive reduced weight (Cherkassky & Goldberg, "Negative-cycle
// detection algorithms", Math. Prog. 1999): ratio(C) > λ. The iteration
// sets λ ← ratio(C) and checks again; when a check holds, no cycle exceeds
// λ. λ rises strictly through finitely many cycle ratios, so the loop
// ends, at λ*.
//
// Result.Cycle is the last cycle found, a critical one; it is nil when the
// check held at lo already, where the caller holds the witness that gave
// it lo. It aliases the workspace's scratch, valid until the next
// evaluation on ws.
//
// Each check runs on scaled int64 costs where scaleCosts and
// potentialScale's guard at that λ allow, in exact rationals otherwise. An
// int64 check that runs out of its nt+2 rounds without closing a cycle
// restarts at the same λ in rationals, which need no round cap. Both make
// the same comparisons on the same values, so they find the same cycles,
// and the ratio, formed through rat either way, is bit-identical.
func (ws *Workspace) MaxRatioFrom(p *Plan, s *System, lo rat.Rat) (Result, error) {
	return ws.iterate(p, s, lo, rat.Rat{}, false)
}

// MaxRatioBelow is MaxRatioFrom with a cutoff: it stops with
// ErrRatioReached as soon as a cycle it finds has a ratio of at least ref,
// so a system whose λ* reaches ref costs no more iterations than it takes
// to find one such cycle. Otherwise it returns what MaxRatioFrom returns.
func (ws *Workspace) MaxRatioBelow(p *Plan, s *System, lo, ref rat.Rat) (Result, error) {
	return ws.iterate(p, s, lo, ref, true)
}

// Iterations reports how many cycles the last MaxRatioFrom, MaxRatioBelow
// or MaxRatioPlan on ws took: one per potential check that failed.
func (ws *Workspace) Iterations() int { return ws.iters }

// iterate is MaxRatioFrom, cut at ref when cut is set.
func (ws *Workspace) iterate(p *Plan, s *System, lo, ref rat.Rat, cut bool) (Result, error) {
	if err := planErr(p, s); err != nil {
		return Result{}, err
	}
	ws.pRounds, ws.iters, ws.ratChecks = 0, 0, 0
	intOK := !ws.forceRat && ws.scaleCosts(s)
	lambda, found := lo, false
	for ws.check(s, p, lambda, intOK, false) != checkHeld {
		lambda, found = ws.cycRatio, true
		ws.cyc, ws.wit = ws.wit, ws.cyc
		ws.iters++
		if cut && !lambda.Less(ref) {
			return Result{}, ErrRatioReached
		}
	}
	res := Result{Ratio: lambda}
	if found {
		res.Cycle = ws.wit
	}
	return res, nil
}

// RatioAtMostPlan reports whether λ ≥ λ*, the maximum cycle ratio of s, for
// p compiled from a system with s's structure. It looks for a potential π
// with π(v) ≥ π(u) + cost(e) − λ·tokens(e) on every edge u→v, which exists
// exactly when no cycle has a ratio above λ.
//
// It relaxes longest paths from π = 0 under those reduced weights. A round
// relaxes the token edges once each, then the zero-token DAG in the plan's
// topological order, which settles every zero-token path in one pass. Under λ ≥ λ* every longest path may be
// taken simple, and a simple path crosses each of the nt token edges at
// most once, so it is settled after nt+1 rounds and round nt+2 changes
// nothing. Under λ < λ* some cycle has positive reduced weight and every
// round raises a potential on it. So the check returns true after the
// first round that changes nothing, and false after nt+2 rounds or as
// soon as the predecessor graph closes a cycle (see MaxRatioFrom); true
// means λ ≥ λ* exactly. A holding check on a Table 2 net averages 2.4
// rounds.
//
// The check reads s's costs like MaxRatioFrom. It never returns true where
// MaxRatioFrom fails: a negative cost, a plan error (ErrDeadlock) and a
// plan of an acyclic graph (ErrNoCycle) come back as MaxRatioFrom reports
// them.
func (ws *Workspace) RatioAtMostPlan(p *Plan, s *System, lambda rat.Rat) (bool, error) {
	if err := planErr(p, s); err != nil {
		return false, err
	}
	ws.pRounds, ws.ratChecks = 0, 0
	intOK := !ws.forceRat && ws.scaleCosts(s)
	return ws.check(s, p, lambda, intOK, true) == checkHeld, nil
}

// planErr is the error every evaluation of p on s reports before any
// arithmetic: a negative cost, the plan's structural error, or ErrNoCycle
// for an acyclic graph.
func planErr(p *Plan, s *System) error {
	if err := negativeCost(s); err != nil {
		return err
	}
	if p.err != nil {
		return p.err
	}
	if !p.cyclic {
		return ErrNoCycle
	}
	return nil
}

// Outcomes of one potential check.
const (
	// checkHeld: a round changed nothing, so λ ≥ λ*.
	checkHeld = iota
	// checkCycle: the predecessor graph closed a cycle, now in ws.cyc with
	// its ratio, above λ, in ws.cycRatio.
	checkCycle
	// checkRounds: nt+2 rounds changed a potential, which proves λ < λ*,
	// but closed no cycle.
	checkRounds
)

// check runs the potential check at λ on p: in int64 when intOK (the
// costs passed scaleCosts) and potentialScale admits λ, in rationals
// otherwise. A decision (RatioAtMostPlan) stops after nt+2 rounds in
// either arithmetic; the iteration needs a cycle and so sends an int64
// check that ran out of rounds on to rationals, where it runs until one
// closes.
func (ws *Workspace) check(s *System, p *Plan, lambda rat.Rat, intOK, decide bool) int {
	if intOK {
		if a, b, ok := ws.potentialScale(s, p, lambda); ok {
			ws.intMode = true
			rounds := len(p.tokenEdges) + 2
			if ws.intRounds > 0 && !decide {
				rounds = min(rounds, ws.intRounds)
			}
			if r := ws.potentialInt(s, p, a, b, rounds); r != checkRounds || decide {
				return r
			}
		}
	}
	ws.intMode = false
	ws.ratChecks++
	maxRounds := -1
	if decide {
		maxRounds = len(p.tokenEdges) + 2
	}
	return ws.potentialRat(s, p, lambda, maxRounds)
}

// potentialScale decides whether the check on p may run on the scaled
// int64 costs ws.scaleCosts left. With λ·scale = a/b in lowest terms, the
// reduced weight of edge e, times b, is the integer b·icost(e) − a·tokens(e).
// A potential only grows from 0, and after r rounds it is the weight of a
// walk that each round extends by distinct token edges and one zero-token
// path, so by at most isum scaled cost: every potential and candidate of
// round r lies in [−a·tokens, r·b·isum]. ok requires a·tokens ≤ 2^62 and
// (nt+1)·b·isum ≤ 2^62, so the nt+2 rounds of an int64 check stay within
// ±1.5·2^62 and the relax loop's adds cannot overflow.
func (ws *Workspace) potentialScale(s *System, p *Plan, lambda rat.Rat) (a, b int64, ok bool) {
	x := lambda.MulInt(ws.scale)
	if x.IsBig() || x.Sign() < 0 {
		return 0, 0, false
	}
	a, b = x.Num(), x.Den()
	tmax := 0
	for _, ei := range p.tokenEdges {
		tmax = max(tmax, s.Tokens[ei])
	}
	if hi, lo := bits.Mul64(uint64(a), uint64(tmax)); hi != 0 || lo > intBound {
		return 0, 0, false
	}
	hi, lo := bits.Mul64(uint64(b), uint64(ws.isum))
	if hi != 0 {
		return 0, 0, false
	}
	if hi, lo = bits.Mul64(lo, uint64(len(p.tokenEdges)+1)); hi != 0 || lo > intBound {
		return 0, 0, false
	}
	return a, b, true
}

// potentialInt is the check in scaled int64 arithmetic, with λ·scale = a/b
// (see potentialScale), for at most maxRounds ≤ nt+2 rounds; the
// potentials live in idist.
func (ws *Workspace) potentialInt(s *System, p *Plan, a, b int64, maxRounds int) int {
	n, nt := p.n, len(p.tokenEdges)
	ws.idist = grow(ws.idist, n)
	ws.zc = grow(ws.zc, len(p.zeroEdge))
	ws.tw = grow(ws.tw, nt)
	pi, zc, tw := ws.idist[:n], ws.zc, ws.tw
	clear(pi)
	pred := ws.resetPred(n)
	for t, ei := range p.zeroEdge {
		zc[t] = b * ws.icost[ei]
	}
	for j, ei := range p.tokenEdges {
		tw[j] = b*ws.icost[ei] - a*int64(s.Tokens[ei])
	}
	start, succ := p.zeroStart, p.zeroSucc
	for round := 1; round <= maxRounds; round++ {
		ws.pRounds++
		changed := false
		for j, h := range p.heads {
			if cand := pi[p.tails[j]] + tw[j]; pi[h] < cand {
				pi[h], pred[h], changed = cand, j, true
			}
		}
		for _, u := range p.order {
			pu := pi[u]
			for t := start[u]; t < start[u+1]; t++ {
				if cand := pu + zc[t]; pi[succ[t]] < cand {
					pi[succ[t]], pred[succ[t]], changed = cand, nt+t, true
				}
			}
		}
		if !changed {
			return checkHeld
		}
		if round > 1 && ws.closedCycle(s, p) {
			return checkCycle
		}
	}
	return checkRounds
}

// potentialRat is potentialInt in exact rationals, for at most maxRounds
// rounds (no cap when negative); the potentials live in dist.
func (ws *Workspace) potentialRat(s *System, p *Plan, lambda rat.Rat, maxRounds int) int {
	n, nt := p.n, len(p.tokenEdges)
	ws.dist = grow(ws.dist, n)
	ws.twRat = grow(ws.twRat, nt)
	pi, tw := ws.dist[:n], ws.twRat
	for v := range pi {
		pi[v] = rat.Zero()
	}
	pred := ws.resetPred(n)
	for j, ei := range p.tokenEdges {
		tw[j] = s.Cost[ei].Sub(lambda.MulInt(int64(s.Tokens[ei])))
	}
	start, succ := p.zeroStart, p.zeroSucc
	for round := 1; maxRounds < 0 || round <= maxRounds; round++ {
		ws.pRounds++
		changed := false
		for j, h := range p.heads {
			if cand := pi[p.tails[j]].Add(tw[j]); pi[h].Less(cand) {
				pi[h], pred[h], changed = cand, j, true
			}
		}
		for _, u := range p.order {
			pu := pi[u]
			for t := start[u]; t < start[u+1]; t++ {
				if cand := pu.Add(s.Cost[p.zeroEdge[t]]); pi[succ[t]].Less(cand) {
					pi[succ[t]], pred[succ[t]], changed = cand, nt+t, true
				}
			}
		}
		if !changed {
			return checkHeld
		}
		if round > 1 && ws.closedCycle(s, p) {
			return checkCycle
		}
	}
	return checkRounds
}

// resetPred sizes ws.pred for n vertices, none with a predecessor.
// pred[v] names the edge that last raised v's potential: token edge j as
// j, zero-token CSR item t as nt+t, and -1 for none.
func (ws *Workspace) resetPred(n int) []int {
	ws.pred = grow(ws.pred, n)
	for v := range ws.pred {
		ws.pred[v] = -1
	}
	return ws.pred
}

// closedCycle looks for a cycle in p's predecessor graph, where every
// vertex has at most one edge in, by walking up from each vertex until the
// walk reaches a root, a vertex an earlier walk passed, or a vertex of its
// own, which closes a cycle. Both checks look after every round but the
// first: most checks hold, and a holding check changes potentials in its
// first round without closing a cycle, so that walk would be wasted. A
// later walk finds any cycle the relaxation keeps closed, and the
// iteration needs only some positive cycle, not the first. On a Table 2
// grid pass this saves 62% of the walks and 3.5% of the rounds. Stamps
// from the monotonic ws.stamp mark the walks, so the whole search is O(n)
// and never clears. On a cycle it leaves the cycle's system edges in
// ws.cyc, in path order, and its ratio in ws.cycRatio.
func (ws *Workspace) closedCycle(s *System, p *Plan) bool {
	n := p.n
	ws.mark = grow(ws.mark, n)
	mark, base := ws.mark, ws.stamp
	for v := 0; v < n; v++ {
		if mark[v] > base {
			continue
		}
		ws.stamp++
		x := v
		for x >= 0 && mark[x] <= base {
			mark[x] = ws.stamp
			x = ws.predTail(p, x)
		}
		if x >= 0 && mark[x] == ws.stamp {
			ws.takeCycle(s, p, x)
			return true
		}
	}
	return false
}

// predTail returns the tail of vertex v's predecessor edge, -1 for a
// vertex without one.
func (ws *Workspace) predTail(p *Plan, v int) int {
	switch j := ws.pred[v]; {
	case j < 0:
		return -1
	case j < len(p.tails):
		return p.tails[j]
	default:
		return p.zeroTail[j-len(p.tails)]
	}
}

// takeCycle copies the predecessor cycle through vertex x into
// ws.cyc as system edges in path order and sets ws.cycRatio to its ratio,
// in the arithmetic of the check that found it.
func (ws *Workspace) takeCycle(s *System, p *Plan, x int) {
	nt := len(p.tokenEdges)
	ws.cyc = ws.cyc[:0]
	var isum, tokens int64
	rsum := rat.Zero()
	for v := x; ; {
		j := ws.pred[v]
		ei := 0
		if j < nt {
			ei = p.tokenEdges[j]
		} else {
			ei = p.zeroEdge[j-nt]
		}
		ws.cyc = append(ws.cyc, ei)
		tokens += int64(s.Tokens[ei])
		if ws.intMode {
			isum += ws.icost[ei]
		} else {
			rsum = rsum.Add(s.Cost[ei])
		}
		if v = ws.predTail(p, v); v == x {
			break
		}
	}
	slices.Reverse(ws.cyc)
	if ws.intMode {
		ws.cycRatio = rat.New(isum, tokens).DivInt(ws.scale)
	} else {
		ws.cycRatio = rsum.DivInt(tokens)
	}
}
