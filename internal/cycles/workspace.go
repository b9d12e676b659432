package cycles

import (
	"repro/internal/rat"
)

// Workspace owns every piece of scratch memory the cycle-ratio engines
// need. For the contraction engine that is the compiler's staging (SCC,
// Kahn and CSR state, local numbering, the token expansion), a scratch Plan,
// and the value tables its three readers fill: the scaled integer costs,
// the per-token-edge longest-path tables, the contracted-edge costs, Karp's
// dynamic-programming tables and the witness rebuild.
//
// A Workspace amortizes those buffers across calls: the first MaxRatio on a
// given net size pays the allocations, subsequent calls of similar size run
// allocation-free. The zero value is ready to use. A Workspace is NOT safe
// for concurrent use — give each solver thread its own (core.Solver and the
// engine's worker pool do exactly that).
//
// MaxRatio compiles the system into the workspace's scratch plan (Compile)
// and evaluates it; callers that meet one structure repeatedly keep a
// compacted copy of that plan (Plan.Compact) and evaluate it (MaxRatioPlan,
// RatioAtMostPlan). Either way the results are
// bit-identical to a fresh Workspace's.
type Workspace struct {
	// epoch stamps the localID table so it never needs clearing: an entry is
	// valid only when its stamp equals the current epoch. Monotonic across
	// calls and across systems.
	epoch int

	// Tarjan SCC scratch: one instance for the system graph (its comp array
	// must survive the whole per-SCC loop) and one for the small contracted
	// graphs Karp runs on.
	sccSys  tarjanScratch
	sccKarp tarjanScratch

	// CSR cursor and key/value staging shared by all adjacency builds
	// (never live across one).
	csrCur []int
	keyTmp []int
	valTmp []int

	// Successor CSR over the full system graph (SCC) and over the token-free
	// subgraph (liveness validation).
	sysStart, sysSucc []int
	zvStart, zvSucc   []int

	// Kahn scratch (acyclicity checks and the zero-token DAG order).
	indeg []int
	queue []int
	order []int

	// Compiler staging per SCC: token-free edge indices (ascending), the
	// local numbering (shared with Howard), the token-edge tails per local
	// vertex (positions into the token edges) with the tail vertices in
	// ascending order and each one's rank among them (-1 = not a tail), the
	// tails each vertex reaches as bitsets over those ranks, and the token
	// expansion with its SCCs and the per-SCC vertex ids (-1 = absent).
	zeroEdges                       []int
	localID                         []int // global vertex -> local id, valid when stamp == epoch
	localStamp                      []int
	verts                           []int // local id -> global vertex
	tailStart, tailItems, tailVerts []int
	tailRank                        []int
	reach                           []uint64
	hops                            []hop
	karpStart, karpSucc, karpID     []int

	// plan is the scratch plan Compile fills and returns.
	plan Plan

	// Arithmetic of the current exact evaluation (see scaleCosts): intMode
	// selects the scaled int64 loops, whose costs are icost (per system
	// edge, summing to isum) and zc (parallel to the zero CSR items), in
	// units of 1/scale. forceRat is a test hook that disables the int64
	// path.
	intMode, forceRat bool
	scale, isum       int64
	icost, zc         []int64

	// Potential check (RatioAtMostPlan): the reduced weights of one
	// component's token edges (tw or twRat by arithmetic) and the rounds the
	// last check ran, summed over components. The potentials themselves
	// live in idist or dist.
	tw      []int64
	twRat   []rat.Rat
	pRounds int

	// Longest-path DP over the zero-token DAG, reset per token edge: reached
	// vertices, distances (dist or idist by arithmetic) and the CSR item of
	// each vertex's best incoming zero edge.
	has   []bool
	dist  []rat.Rat
	idist []int64
	pred  []int

	// Contracted-edge costs (ceInt or ceRat by arithmetic).
	ceInt []int64
	ceRat []rat.Rat

	// Karp scratch: the flattened D/has/parent tables (D as kI or kD by
	// arithmetic, kc the int hop costs), the witness walk, the cycle it
	// found (kcyc, hop positions) and the contracted edges of the critical
	// cycle kept for the witness rebuild (critCyc; witTmp stages its system
	// edges).
	kI, kc        []int64
	kD            []rat.Rat
	kHas          []bool
	kParent       []int
	pathV, pathE  []int
	seenPos       []int
	kcyc, critCyc []int
	witTmp        []int

	// Howard policy-iteration scratch. The policy tables live in their own
	// struct and every entry a run reads is re-initialized at the start of
	// that run, so interleaving MaxRatio and MaxRatioHoward calls on one
	// workspace can never leak one engine's state into the other (see
	// howardScratch).
	howard howardScratch
}

// grow returns s with length n, reusing capacity when possible. New backing
// arrays come back zeroed; resliced ones keep old values, so callers must
// either clear, stamp, or only read entries they wrote.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fillCSR groups m entries by key, preserving entry order within each
// group: after the call, items[start[k]:start[k+1]] lists vals[j] for every
// j with keys[j] == k, in increasing j. start must have length n+1, items
// length m; keys and vals are read-only and may alias. The key/value slices
// (rather than closures) keep the hot path free of per-call closure
// allocations.
func (ws *Workspace) fillCSR(start, items []int, n int, keys, vals []int) {
	m := len(keys)
	for i := 0; i <= n; i++ {
		start[i] = 0
	}
	for j := 0; j < m; j++ {
		start[keys[j]+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	ws.csrCur = grow(ws.csrCur, n)
	copy(ws.csrCur, start[:n])
	for j := 0; j < m; j++ {
		k := keys[j]
		items[ws.csrCur[k]] = vals[j]
		ws.csrCur[k]++
	}
}

// acyclic reports whether the system's graph — restricted to token-free
// edges when zeroOnly is set — has no directed cycle, via Kahn's algorithm
// on reused scratch.
func (ws *Workspace) acyclic(s *System, zeroOnly bool) bool {
	n := s.G.N
	ws.zeroEdges = ws.zeroEdges[:0]
	for i := range s.G.Edges {
		if zeroOnly && s.Tokens[s.G.Edges[i].ID] > 0 {
			continue
		}
		ws.zeroEdges = append(ws.zeroEdges, i)
	}
	m := len(ws.zeroEdges)
	ws.zvStart = grow(ws.zvStart, n+1)
	ws.zvSucc = grow(ws.zvSucc, m)
	ws.keyTmp = grow(ws.keyTmp, m)
	ws.valTmp = grow(ws.valTmp, m)
	for j, ei := range ws.zeroEdges {
		ws.keyTmp[j] = s.G.Edges[ei].From
		ws.valTmp[j] = s.G.Edges[ei].To
	}
	ws.fillCSR(ws.zvStart, ws.zvSucc, n, ws.keyTmp[:m], ws.valTmp[:m])
	ordered := ws.kahn(n, ws.zvStart, ws.zvSucc)
	return ordered == n
}

// kahn runs Kahn's algorithm (LIFO queue, matching graph.TopoOrder) over the
// successor CSR and fills ws.order with the topological prefix. It returns
// how many vertices were ordered; a full order (== n) means acyclic.
func (ws *Workspace) kahn(n int, start, succ []int) int {
	ws.indeg = grow(ws.indeg, n)
	for i := 0; i < n; i++ {
		ws.indeg[i] = 0
	}
	for _, w := range succ[:start[n]] {
		ws.indeg[w]++
	}
	ws.queue = ws.queue[:0]
	for v := 0; v < n; v++ {
		if ws.indeg[v] == 0 {
			ws.queue = append(ws.queue, v)
		}
	}
	ws.order = ws.order[:0]
	for len(ws.queue) > 0 {
		v := ws.queue[len(ws.queue)-1]
		ws.queue = ws.queue[:len(ws.queue)-1]
		ws.order = append(ws.order, v)
		for t := start[v]; t < start[v+1]; t++ {
			w := succ[t]
			ws.indeg[w]--
			if ws.indeg[w] == 0 {
				ws.queue = append(ws.queue, w)
			}
		}
	}
	return len(ws.order)
}

// scc computes the strongly connected components of the system graph on
// reused scratch. Component ids match graph.Digraph.SCC exactly (same
// Tarjan, same visit order).
func (ws *Workspace) scc(s *System) ([]int, int) {
	n := s.G.N
	m := len(s.G.Edges)
	ws.sysStart = grow(ws.sysStart, n+1)
	ws.sysSucc = grow(ws.sysSucc, m)
	ws.keyTmp = grow(ws.keyTmp, m)
	ws.valTmp = grow(ws.valTmp, m)
	for j := range s.G.Edges {
		ws.keyTmp[j] = s.G.Edges[j].From
		ws.valTmp[j] = s.G.Edges[j].To
	}
	ws.fillCSR(ws.sysStart, ws.sysSucc, n, ws.keyTmp[:m], ws.valTmp[:m])
	return ws.sccSys.run(n, ws.sysStart, ws.sysSucc)
}

// tarjanScratch is the reusable state of one iterative Tarjan SCC run.
type tarjanScratch struct {
	index, low []int
	onStack    []bool
	comp       []int
	stack      []int
	dfsV, dfsE []int // explicit DFS stack: vertex and next adjacency offset
}

// run is the iterative Tarjan of graph.Digraph.SCC ported onto a successor
// CSR: identical visit order, identical component numbering (sinks first).
func (t *tarjanScratch) run(n int, start, succ []int) ([]int, int) {
	const unvisited = -1
	t.index = grow(t.index, n)
	t.low = grow(t.low, n)
	t.onStack = grow(t.onStack, n)
	t.comp = grow(t.comp, n)
	for i := 0; i < n; i++ {
		t.index[i] = unvisited
		t.comp[i] = unvisited
		t.onStack[i] = false
	}
	t.stack = t.stack[:0]
	next := 0
	ncomp := 0
	for root := 0; root < n; root++ {
		if t.index[root] != unvisited {
			continue
		}
		t.dfsV = append(t.dfsV[:0], root)
		t.dfsE = append(t.dfsE[:0], start[root])
		t.index[root] = next
		t.low[root] = next
		next++
		t.stack = append(t.stack, root)
		t.onStack[root] = true
		for len(t.dfsV) > 0 {
			top := len(t.dfsV) - 1
			v := t.dfsV[top]
			if t.dfsE[top] < start[v+1] {
				w := succ[t.dfsE[top]]
				t.dfsE[top]++
				if t.index[w] == unvisited {
					t.index[w] = next
					t.low[w] = next
					next++
					t.stack = append(t.stack, w)
					t.onStack[w] = true
					t.dfsV = append(t.dfsV, w)
					t.dfsE = append(t.dfsE, start[w])
				} else if t.onStack[w] && t.index[w] < t.low[v] {
					t.low[v] = t.index[w]
				}
				continue
			}
			t.dfsV = t.dfsV[:top]
			t.dfsE = t.dfsE[:top]
			if top > 0 {
				parent := t.dfsV[top-1]
				if t.low[v] < t.low[parent] {
					t.low[parent] = t.low[v]
				}
			}
			if t.low[v] == t.index[v] {
				for {
					w := t.stack[len(t.stack)-1]
					t.stack = t.stack[:len(t.stack)-1]
					t.onStack[w] = false
					t.comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return t.comp, ncomp
}
