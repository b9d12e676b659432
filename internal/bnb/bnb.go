// Package bnb is the exact optimizer for the paper's Section 6 search
// problem: among all replicated interval-free mappings of a pipeline onto a
// heterogeneous platform, find one whose steady-state period is minimal —
// and prove it. The heuristics in package sched (greedy, hill climbing,
// annealing) are fast but certify nothing; this package runs a parallel
// branch-and-bound whose answer is the optimum over the whole space
// whenever it completes, and the best incumbent found so far when a
// deadline cuts it short.
//
// The search space is the one every heuristic in this repository inhabits:
// each stage is assigned a non-empty set of processors, sets are disjoint
// across stages (a processor executes at most one stage), and replicas
// within a stage serve data sets round-robin in ascending processor-id
// order. Stages are assigned in pipeline order; a tree node is a prefix of
// stage assignments.
//
// Three mechanisms keep the exponential tree tractable:
//
//   - Admissible bounding. Round-robin replication means every replica u of
//     stage i handles one data set in m_i, so every completion has
//     P >= w_i/(m_i·s_i), s_i the slowest speed in S_i. For an assigned
//     stage that is a bound; for the open ones it is a test (the
//     computation relaxation): below a reference R, stage j with threshold
//     speed s needs ⌊w_j/(R·s)⌋ + 1 members no slower than s, and as the
//     free processors at least as fast as s are nested, disjoint such sets
//     exist iff Hall's condition holds at every threshold, which a dynamic
//     program over (class, subset of open stages) decides. Under the
//     strict model the paper's P >= Mct adds the ports: once stages i−1 and
//     i are assigned, each replica of stage i−1 has its exact cycle-time
//     Cin + Ccomp + Cout and each replica of stage i its exact Cin + Ccomp,
//     and the largest of these bounds every completion. A node whose bound
//     already meets the incumbent period is cut, and so is a stage's
//     partial class choice once it bounds every node that could complete it.
//
//   - Symmetry breaking. Processors that are provably interchangeable — equal
//     speed, and swapping them leaves the bandwidth matrix invariant — are
//     grouped into classes (restricted to consecutive-id runs, which makes
//     the argument exact under ascending-id replica order: class members of
//     a stage always occupy a contiguous block of round-robin positions, so
//     exchanging members never re-pairs anyone else). Within a class only
//     the canonical choice "first free members, in stage order" is
//     enumerated; on a uniform platform this collapses the per-stage choice
//     from subsets to replica counts.
//
//   - Deterministic work partitioning (the Bobpp recipe). The first tree
//     levels are expanded into a frontier of subtree roots; workers pull
//     root indices from a shared counter and explore each subtree
//     independently, evaluating each complete mapping on the shared engine
//     as the depth-first walk reaches it. Pruning inside a subtree uses
//     only the greedy warm start and that subtree's own discoveries, each
//     leaf judged against the best known when the walk reaches it, and
//     subtree results merge in frontier order — so the returned mapping,
//     period, proven flag and node counts are bit-identical at any worker
//     count.
package bnb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// Options configures a Search. The zero value searches with the engine's
// worker count, the default frontier size, and no warm start.
type Options struct {
	// Workers is the number of concurrent subtree explorers (<= 0 means the
	// engine's pool size). The result never depends on it.
	Workers int
	// FrontierTarget is the minimum number of subtree roots the deterministic
	// partitioning expands before workers start (default 64). It shifts load
	// balance and node counts, never the result; it must not be derived from
	// the worker count or the bit-identity guarantee degrades to
	// value-identity.
	FrontierTarget int
	// Incumbent, when non-nil, warm-starts the search with a known-feasible
	// mapping whose exact period is IncumbentPeriod (sched passes the greedy
	// solution). The bound prunes against it from the first node, and it is
	// returned when nothing better exists.
	Incumbent       *mapping.Mapping
	IncumbentPeriod rat.Rat
	// OnProgress, when non-nil, receives incremental Stats deltas as the
	// search runs: each walker reports the counters it accumulated since its
	// previous report after every leaf and once when it finishes, so
	// summing the deltas at any moment approximates the work done so far.
	// Deltas never overlap or go missing — the sum over a completed search
	// equals Result.Stats (minus Frontier, which is not a counter). The
	// callback runs on walker goroutines and must be safe for concurrent use
	// and cheap (it runs once per leaf). When a custom Executor or
	// a Replay entry produces a root's result, that root contributes one
	// delta (its whole SubResult.Stats) at completion instead of streaming.
	OnProgress func(Stats)

	// Executor, when non-nil, runs the frontier roots instead of the
	// in-process walker — the seam the cluster coordinator uses to ship
	// roots to worker nodes. eng may then be nil. Merge order and the
	// bit-identity guarantee are unaffected: results are still folded in
	// frontier order, whatever order they arrive in.
	Executor Executor

	// Replay maps frontier indices to roots already explored by a previous
	// run (a checkpoint). An entry is used only when its Root and Warm equal
	// the root this plan has at that index and the warm period it would be
	// dispatched with; any other entry is ignored and its root runs. A used
	// entry is never dispatched: its stats and incumbent merge exactly as if
	// the executor had just produced them, so a resumed deterministic search
	// is byte-identical to an uninterrupted one. OnRootDone is not called
	// for replayed roots.
	Replay map[int]Finished

	// OnRootDone, when non-nil, is called once per executed root as it
	// completes, from worker goroutines (must be safe for concurrent use).
	// frontier is the total number of roots in the plan — the checkpoint
	// layer persists incremental progress through this callback and sizes
	// its done-bitmap from it. done carries the root and warm period along
	// with the result, so a later Replay can check it still applies.
	// Replayed roots never trigger the callback.
	OnRootDone func(frontier int, done Finished)

	// Racing trades bit-identity for wall-clock speed: each root is
	// dispatched with the best period known at dispatch time instead of the
	// original warm start, so one subtree's discovery prunes the others.
	// The returned period and Proven flag remain exact — pruning against
	// any feasible incumbent is admissible; only which optimal mapping wins
	// a tie (and the node counts) may differ from the deterministic mode.
	Racing bool
}

const (
	defaultFrontierTarget = 64
	// defaultRemoteWorkers is the dispatch concurrency when a custom
	// Executor is configured without an engine to borrow a pool size from.
	defaultRemoteWorkers = 8
)

// Stats counts the work the search performed. With a fixed Options
// configuration the counts are deterministic: they do not depend on the
// worker count (asserted by tests).
type Stats struct {
	// Nodes is the number of stage assignments constructed (interior tree
	// nodes, frontier expansion included). A stage's partial class choice
	// cut before its assignment is complete constructs none, so it counts
	// in neither Nodes nor Pruned.
	Nodes int64 `json:"nodes"`
	// Leaves is the number of complete mappings evaluated on the engine.
	Leaves int64 `json:"leaves"`
	// Pruned is the number of nodes cut by the lower bound.
	Pruned int64 `json:"pruned"`
	// Infeasible is the number of complete mappings rejected because the
	// platform lacks a link the mapping requires.
	Infeasible int64 `json:"infeasible"`
	// Screened is the number of leaves whose exact period met the
	// incumbent, ruled out by the exact cutoff (engine.EvaluateBelow)
	// rather than evaluated in full. A leaf cut by Mct before a net build
	// that would have failed counts here, not in Infeasible. Screened
	// leaves still count in Leaves: the cutoff changes how a leaf is ruled
	// out, not whether it was visited.
	Screened int64 `json:"screened"`
	// Frontier is the number of subtree roots the partitioning produced.
	Frontier int `json:"frontier"`
}

func (s *Stats) add(o Stats) {
	s.Nodes += o.Nodes
	s.Leaves += o.Leaves
	s.Pruned += o.Pruned
	s.Infeasible += o.Infeasible
	s.Screened += o.Screened
}

// Result is the outcome of a Search.
type Result struct {
	// Mapping achieves Period; when Proven is true no replicated mapping of
	// the search space has a smaller period.
	Mapping *mapping.Mapping
	Period  rat.Rat
	// Proven reports that the tree was exhausted. False means the deadline
	// expired first: Mapping is the best incumbent (at worst the warm
	// start), not a certificate.
	Proven bool
	Stats  Stats
}

// Throughput returns 1/Period.
func (r Result) Throughput() rat.Rat { return rat.One().Div(r.Period) }

// incumbent is a feasible mapping with its exact period.
type incumbent struct {
	mapp   *mapping.Mapping
	period rat.Rat
}

// class is a maximal run of consecutive-id, mutually interchangeable
// processors.
type class struct {
	speed   int64
	members []int // ascending, consecutive ids
}

// problem is the read-only search context shared by all walkers.
type problem struct {
	pipe       *pipeline.Pipeline
	plat       *platform.Platform
	cm         model.CommModel
	n          int
	classes    []class // enumeration order: decreasing speed, then lowest id
	heavy      [][]int // heavy[i]: the relaxCap heaviest of stages i..n-1 (ties: lower index)
	warm       *incumbent
	onProgress func(Stats)
}

func (p *problem) work(stage int) int64 { return p.pipe.Stages[stage].Work }

// Search runs the branch and bound. It is exact: when the returned Result
// has Proven set, its period is minimal over every replicated mapping with
// ascending-id round-robin order. Under a context deadline the search is
// anytime — the best incumbent found before the deadline is returned with
// Proven false; the error cases are a context canceled before any feasible
// mapping was known and a space with no feasible mapping at all.
func Search(ctx context.Context, eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, opts Options) (Result, error) {
	if opts.Workers <= 0 {
		if eng != nil {
			opts.Workers = eng.Workers()
		} else {
			opts.Workers = defaultRemoteWorkers
		}
	}
	if opts.FrontierTarget <= 0 {
		opts.FrontierTarget = defaultFrontierTarget
	}
	pr, err := newProblem(pipe, plat, cm, opts)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		if pr.warm != nil {
			return Result{Mapping: pr.warm.mapp, Period: pr.warm.period}, nil
		}
		return Result{}, err
	}

	// Phase 1: expand the first levels into the frontier of subtree roots.
	// The expansion prunes against the warm start only, so the frontier is a
	// pure function of the problem and FrontierTarget.
	frontier, depth, stats, interrupted := expandFrontier(ctx, pr, eng, opts.FrontierTarget)

	// Phase 2: workers pull root indices from a shared counter and hand each
	// root to the executor — the in-process walker by default, or whatever
	// Options.Executor supplies (remote nodes, checkpoint replay). Each
	// subtree runs against its dispatch-time warm period plus its own
	// discoveries, so its result and counts are deterministic (unless Racing
	// widens the warm period on purpose).
	results := make([]SubResult, len(frontier))
	if !interrupted && len(frontier) > 0 {
		// The internal local executor shares pr, runs the frontier nodes and
		// the warm period as they are (their wire forms are not parsed back)
		// and streams progress deltas per leaf; custom executors and
		// replays contribute one delta per completed root instead.
		var local *LocalExecutor
		exec := opts.Executor
		if exec == nil {
			local = &LocalExecutor{pr: pr, eng: eng}
			exec = local
		}
		roots := make([]Root, len(frontier))
		for i, nd := range frontier {
			roots[i] = rootOf(nd, i, depth)
		}
		warm0 := ""
		if pr.warm != nil {
			warm0 = pr.warm.period.String()
		}
		var raceMu sync.Mutex
		raceStr := warm0
		var raceBest rat.Rat
		raceHas := pr.warm != nil
		if raceHas {
			raceBest = pr.warm.period
		}
		improveRace := func(periodStr string) {
			p, perr := rat.Parse(periodStr)
			if perr != nil {
				return
			}
			raceMu.Lock()
			if !raceHas || p.Less(raceBest) {
				raceBest, raceHas, raceStr = p, true, periodStr
			}
			raceMu.Unlock()
		}
		workers := opts.Workers
		if workers > len(frontier) {
			workers = len(frontier)
		}
		var nextIdx atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(nextIdx.Add(1) - 1)
					if i >= len(frontier) {
						return
					}
					warm, ref, hasRef := warm0, rat.Rat{}, pr.warm != nil
					if hasRef {
						ref = pr.warm.period
					}
					if opts.Racing {
						raceMu.Lock()
						warm, ref, hasRef = raceStr, raceBest, raceHas
						raceMu.Unlock()
					}
					if rep, ok := opts.Replay[i]; ok && rep.Warm == warm && rep.Root.sameRoot(roots[i]) {
						results[i] = rep.Result
						if pr.onProgress != nil && rep.Result.Stats != (Stats{}) {
							pr.onProgress(rep.Result.Stats)
						}
						if opts.Racing && rep.Result.BestPeriod != "" {
							improveRace(rep.Result.BestPeriod)
						}
						continue
					}
					var res SubResult
					var err error
					if local != nil {
						res = local.run(ctx, frontier[i], depth, ref, hasRef)
					} else {
						res, err = exec.RunRoot(ctx, roots[i], warm)
					}
					if err != nil {
						// The root was not explored (lost worker, malformed
						// descriptor). The search stays anytime: everything
						// else still merges, just without a certificate.
						res = SubResult{}
					}
					results[i] = res
					if local == nil && pr.onProgress != nil && res.Stats != (Stats{}) {
						pr.onProgress(res.Stats)
					}
					if opts.Racing && res.BestPeriod != "" {
						improveRace(res.BestPeriod)
					}
					if err == nil && opts.OnRootDone != nil {
						opts.OnRootDone(len(roots), Finished{Root: roots[i], Warm: warm, Result: res})
					}
				}
			}()
		}
		wg.Wait()
	}

	// Merge in frontier order: the warm start wins ties, then the earliest
	// subtree — the same winner a single worker finds.
	best := pr.warm
	proven := !interrupted
	for i := range results {
		stats.add(results[i].Stats)
		if !results[i].Complete {
			proven = false
		}
		inc, incErr := results[i].incumbentOf(plat.NumProcs())
		if incErr != nil {
			proven = false // a corrupt wire result never certifies anything
			continue
		}
		if inc != nil && (best == nil || inc.period.Less(best.period)) {
			best = inc
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("bnb: no feasible replicated mapping (platform links cannot carry the pipeline)")
	}
	return Result{Mapping: best.mapp, Period: best.period, Proven: proven, Stats: stats}, nil
}

// node is a subtree root: assignments for stages 0..depth-1.
type node struct {
	replicas [][]int // per assigned stage, in class-enumeration order
	used     []int   // per class, members consumed (always a prefix)
	free     int     // processors not yet assigned
	lb       rat.Rat // computation lower bound contributed by assigned stages
}

// walker explores one subtree depth-first. It is single-goroutine state; the
// only shared object it touches is the engine.
type walker struct {
	pr         *problem
	ctx        context.Context
	eng        *engine.Engine
	depthLimit int      // stage at which assignments are snapshotted instead of recursed (n = explore fully)
	out        *[]*node // frontier accumulator for expansion walkers

	replicas [][]int
	used     []int
	free     int

	leafMapp  mapping.Mapping // the leaf under evaluation; its sets share leafProcs
	leafProcs []int

	// The strict cycle-time bound's state, kept only below the frontier
	// under the strict model (cycle). Per assigned stage: its replica set in
	// round-robin (ascending id) order, each replica's exact Cin + Ccomp in
	// that order, and whether every link between consecutive stages so far
	// exists. Each stage's scratch has room for every processor, so filling
	// it never allocates.
	cycle  bool
	sorted [][]int
	load   [][]rat.Rat
	linked []bool

	ref    rat.Rat // current pruning reference: min(warm start, local best)
	hasRef bool
	best   *incumbent // strictly better than the warm start, else nil

	// The relaxation's state: demand[j·len(classes)+l] (see setRef), and dp,
	// one entry per subset of the stages it weighs.
	demand []int
	dp     []int

	st  Stats
	pub Stats // counters already reported through problem.onProgress
}

// publish reports the counters accumulated since the previous publish to
// the progress callback, if any.
func (w *walker) publish() {
	if w.pr.onProgress == nil {
		return
	}
	d := Stats{
		Nodes:      w.st.Nodes - w.pub.Nodes,
		Leaves:     w.st.Leaves - w.pub.Leaves,
		Pruned:     w.st.Pruned - w.pub.Pruned,
		Infeasible: w.st.Infeasible - w.pub.Infeasible,
		Screened:   w.st.Screened - w.pub.Screened,
	}
	w.pub = w.st
	if d != (Stats{}) {
		w.pr.onProgress(d)
	}
}

func newWalker(pr *problem, ctx context.Context, eng *engine.Engine, nd *node, depth, depthLimit int, out *[]*node, ref rat.Rat, hasRef bool) *walker {
	w := &walker{
		pr:         pr,
		ctx:        ctx,
		eng:        eng,
		depthLimit: depthLimit,
		out:        out,
		replicas:   make([][]int, pr.n),
		leafMapp:   mapping.Mapping{Replicas: make([][]int, pr.n)},
		used:       append([]int(nil), nd.used...),
		free:       nd.free,
		demand:     make([]int, pr.n*len(pr.classes)),
		dp:         make([]int, 1<<(relaxCap+1)),
	}
	if hasRef {
		w.setRef(ref)
	}
	copy(w.replicas, nd.replicas)
	if out == nil && pr.cm == model.Strict {
		p := pr.plat.NumProcs()
		ids, times := make([]int, pr.n*p), make([]rat.Rat, pr.n*p)
		w.cycle = true
		w.sorted = make([][]int, pr.n)
		w.load = make([][]rat.Rat, pr.n)
		w.linked = make([]bool, pr.n)
		for i := range w.sorted {
			w.sorted[i] = ids[i*p : i*p : (i+1)*p]
			w.load[i] = times[i*p : (i+1)*p]
		}
	}
	return w
}

// dfs handles the subtree below a node whose stages < stage are assigned and
// whose assigned-stage bound is lb.
func (w *walker) dfs(stage int, lb rat.Rat) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if stage == w.pr.n {
		w.leaf()
		return nil
	}
	if stage == w.depthLimit {
		nd := &node{
			replicas: cloneReplicas(w.replicas[:stage]),
			used:     append([]int(nil), w.used...),
			free:     w.free,
			lb:       lb,
		}
		*w.out = append(*w.out, nd)
		return nil
	}
	return w.choose(stage, 0, 0, 0, lb)
}

// choose enumerates the replica-set choices of one stage class by class:
// taken members of classes < c are already appended to replicas[stage]. The
// canonical form takes the first free members of each chosen class, so a
// choice is fully described by per-class counts.
func (w *walker) choose(stage, c, taken int, slowest int64, parentLB rat.Rat) error {
	if c == len(w.pr.classes) {
		if taken == 0 {
			return nil
		}
		w.st.Nodes++
		// Cut when the column work/(taken·slowest) or parentLB meets the
		// reference (a Rat is formed only for the lb handed down), or the
		// relaxation rules out the open stages.
		work := w.pr.work(stage)
		if w.hasRef && (w.ref.CmpFrac(work, int64(taken), slowest) <= 0 || !parentLB.Less(w.ref) ||
			stage+1 < w.pr.n && w.relaxMeets(stage+1, -1, 0, 0)) {
			w.st.Pruned++
			return nil
		}
		lb := parentLB
		if parentLB.CmpFrac(work, int64(taken), slowest) < 0 {
			lb = rat.New(work, int64(taken)).DivInt(slowest)
		}
		if w.cycle {
			if ct, ok := w.cycleBound(stage); ok {
				if w.hasRef && !ct.Less(w.ref) {
					w.st.Pruned++
					return nil
				}
				lb = rat.Max(lb, ct)
			}
		}
		return w.dfs(stage+1, lb)
	}
	cl := &w.pr.classes[c]
	// Every later stage still needs a processor; w.free already excludes the
	// members taken for this stage so far.
	maxT := max(0, min(len(cl.members)-w.used[c], w.free-(w.pr.n-stage-1)))
	// Largest counts first: the fastest classes are enumerated first and
	// replication only helps, so good incumbents appear early in DFS order.
	// A partial choice is checked right after it takes members, by the
	// relaxation with the stage included: t = 0 hands the unchanged state
	// down, and the last class completes the choice, which the node's own
	// bound then judges.
	for t := maxT; t >= 0; t-- {
		sl := slowest
		if t > 0 {
			w.take(stage, c, t)
			if sl == 0 || cl.speed < sl {
				sl = cl.speed
			}
			if c+1 < len(w.pr.classes) && w.hasRef && w.relaxMeets(stage+1, stage, taken+t, c) {
				w.give(stage, c, t)
				continue
			}
		}
		err := w.choose(stage, c+1, taken+t, sl, parentLB)
		if t > 0 {
			w.give(stage, c, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// take appends the first t free members of class c to stage's replica set.
func (w *walker) take(stage, c, t int) {
	w.replicas[stage] = append(w.replicas[stage], w.pr.classes[c].members[w.used[c]:w.used[c]+t]...)
	w.used[c] += t
	w.free -= t
}

// give undoes take(stage, c, t).
func (w *walker) give(stage, c, t int) {
	w.used[c] -= t
	w.free += t
	w.replicas[stage] = w.replicas[stage][:len(w.replicas[stage])-t]
}

// relaxCap is the most open stages the relaxation weighs, the heaviest: it
// takes (relaxCap+1)·2^(relaxCap+1) steps per class at most, and dropping a
// stage only loosens Hall's condition.
const relaxCap = 6

// setRef makes r the pruning reference and refills demand[j][l]: the least
// m <= numProcs with work_j/(m·speed_l) < r (exact CmpFrac), else
// numProcs+1. Classes slow down in order, so each scan resumes the last.
func (w *walker) setRef(r rat.Rat) {
	w.ref, w.hasRef = r, true
	limit := w.pr.plat.NumProcs() + 1
	for j := 0; j < w.pr.n; j++ {
		m := 1
		for l, cl := range w.pr.classes {
			for m < limit && r.CmpFrac(w.pr.work(j), int64(m), cl.speed) <= 0 {
				m++
			}
			w.demand[j*len(w.pr.classes)+l] = m
		}
	}
}

// relaxMeets reports whether no disjoint free sets give each open stage
// firstOpen..n-1 a column w_j/(m_j·slowest_j) below the reference, and,
// when part >= 0, also let stage part (taken members of classes <= c, class
// c slowest) reach one with free members of the classes after c. Placed at
// class l, stage j needs demand[j][l] free members of classes <= l; these
// sets are nested, so all sets exist iff the demands placed at or before
// every class fit in its prefix (Hall's condition). The program keeps, per
// subset of placed stages, their least total demand. Stage part places
// after c only and must also fit in the classes after c; no undecided
// processor is faster than a decided one, so that is Hall's for it too.
func (w *walker) relaxMeets(firstOpen, part, taken, c int) bool {
	pr, nc := w.pr, len(w.pr.classes)
	kept := pr.heavy[firstOpen]
	items := len(kept)
	if part >= 0 && w.demand[part*nc+c] > taken {
		items++ // else its column is below the reference already
	}
	dp := w.dp[:1<<items]
	for s := range dp {
		dp[s] = math.MaxInt
	}
	dp[0] = 0
	full, avail, undecided := len(dp)-1, 0, 0
	for l, cl := range pr.classes {
		if dp[full] <= avail {
			return false
		}
		f := len(cl.members) - w.used[l]
		if f == 0 {
			continue
		}
		avail += f
		if l > c {
			undecided += f
		}
		for s, d := range dp[:full] {
			for i := 0; d <= avail && i < items; i++ {
				k, bit := 0, 1<<i
				switch {
				case s&bit != 0:
					continue
				case i < len(kept):
					k = w.demand[kept[i]*nc+l]
				case l <= c:
					continue
				default:
					if k = w.demand[part*nc+l] - taken; k > undecided {
						continue
					}
				}
				if t := d + k; t <= avail && t < dp[s|bit] {
					dp[s|bit] = t
				}
			}
		}
	}
	return dp[full] > avail
}

// cycleBound is the strict cycle-time bound of the node that just completed
// stage: the largest of the cycle-time terms that assigning stage makes
// exact. Once stages stage−1 and stage are both assigned, each
// replica of stage−1 has its exact Cin + Ccomp + Cout, and each replica of
// stage its exact Cin + Ccomp, a lower bound on its cycle-time since
// Cout ≥ 0. Under the strict model P ≥ Mct ≥ every one of these (Section
// 2), so the largest bounds every completion. The port sums are
// model.Instance's: the δ/b terms over one lcm(m_{i−1}, m_i) of data sets,
// divided by the lcm. At stage 0 the values are the replicas' Ccomp.
//
// It also records stage's round-robin order and each replica's Cin + Ccomp,
// which the next stage's call reads. ok is false when a link between two
// consecutive assigned stages is missing: every completion is infeasible
// then, and the leaf, not the bound, rules it out.
func (w *walker) cycleBound(stage int) (bound rat.Rat, ok bool) {
	pr := w.pr
	cur := append(w.sorted[stage][:0], w.replicas[stage]...)
	slices.Sort(cur)
	w.sorted[stage] = cur
	load := w.load[stage]
	mi := int64(len(cur))
	work, speeds := pr.work(stage), pr.plat.Speeds
	if stage == 0 {
		w.linked[0] = true
		for b, v := range cur {
			load[b] = rat.New(work, speeds[v]).DivInt(mi)
			bound = rat.Max(bound, load[b])
		}
		return bound, true
	}
	prev, bw := w.sorted[stage-1], pr.plat.Bandwidths
	w.linked[stage] = w.linked[stage-1] && allLinked(pr.plat, prev, cur)
	if !w.linked[stage] {
		return rat.Rat{}, false
	}
	mp := int64(len(prev))
	l := rat.LCMInt(mp, mi)
	delta := pr.pipe.FileSizes[stage-1]
	for a, u := range prev {
		out := rat.Zero()
		for j := int64(a); j < l; j += mp {
			out = out.Add(rat.New(delta, bw[u][cur[j%mi]]))
		}
		bound = rat.Max(bound, w.load[stage-1][a].Add(out.DivInt(l)))
	}
	for b, v := range cur {
		in := rat.Zero()
		for j := int64(b); j < l; j += mi {
			in = in.Add(rat.New(delta, bw[prev[j%mp]][v]))
		}
		load[b] = in.DivInt(l).Add(rat.New(work, speeds[v]).DivInt(mi))
		bound = rat.Max(bound, load[b])
	}
	return bound, true
}

// allLinked reports whether every processor of from has a link to every
// processor of to, as model.FromMapped requires of consecutive stages.
func allLinked(plat *platform.Platform, from, to []int) bool {
	for _, u := range from {
		for _, v := range to {
			if !plat.HasLink(u, v) {
				return false
			}
		}
	}
	return true
}

// leaf evaluates the complete assignment and, when it beats the pruning
// reference, makes it the subtree's incumbent at once.
func (w *walker) leaf() {
	defer w.publish() // one progress delta per leaf
	// One backing array holds every stage's sorted replica set.
	reps, procs := w.leafMapp.Replicas, w.leafProcs[:0]
	for i, r := range w.replicas {
		start := len(procs)
		procs = append(procs, r...)
		reps[i] = procs[start:len(procs):len(procs)]
		slices.Sort(reps[i]) // round-robin order is ascending processor id
	}
	w.leafProcs = procs
	// Sets are non-empty and disjoint by construction; model.FromMapped
	// validates the mapping anyway and a failure counts as Infeasible. The
	// instance copies the replica sets, so the scratch is reused.
	inst, err := model.FromMapped(w.pr.pipe, w.pr.plat, &w.leafMapp)
	if err != nil {
		w.st.Infeasible++ // a required link is missing; skip, never abort
		return
	}
	w.st.Leaves++ // counted here so Leaves and Infeasible never overlap
	task := engine.Task{Inst: inst, Model: w.pr.cm}
	// With an incumbent, the leaf is evaluated under the exact cutoff: a
	// leaf whose period is at least the reference can never replace
	// w.best, whose update below requires a strict improvement, so the
	// cutoff stops as soon as that is proven.
	var res core.Result
	if w.hasRef {
		res, err = w.eng.EvaluateBelow(task, w.ref)
	} else {
		res, err = w.eng.Evaluate(task)
	}
	if errors.Is(err, core.ErrCutoff) {
		w.st.Screened++
		return
	}
	if err != nil {
		w.st.Infeasible++
		return
	}
	if !w.hasRef || res.Period.Less(w.ref) {
		w.best = &incumbent{mapp: &mapping.Mapping{Replicas: cloneReplicas(reps)}, period: res.Period}
		w.setRef(res.Period)
	}
}

// classesOf groups processors into maximal consecutive-id runs of mutually
// interchangeable members, ordered by decreasing speed (ties: lowest id).
// Restricting classes to consecutive ids is what makes prefix selection
// exact under ascending-id round-robin order: no outside processor id can
// fall between two members, so a within-class relabeling never changes any
// replica's round-robin position.
func classesOf(plat *platform.Platform) []class {
	p := plat.NumProcs()
	var runs []class
	for u := 0; u < p; {
		run := class{speed: plat.Speeds[u], members: []int{u}}
		v := u + 1
		for ; v < p; v++ {
			ok := true
			for _, m := range run.members {
				if !interchangeable(plat, m, v) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			run.members = append(run.members, v)
		}
		runs = append(runs, run)
		u = v
	}
	sort.SliceStable(runs, func(i, j int) bool {
		if runs[i].speed != runs[j].speed {
			return runs[i].speed > runs[j].speed
		}
		return runs[i].members[0] < runs[j].members[0]
	})
	return runs
}

// interchangeable reports whether swapping u and v leaves the platform
// invariant: equal speeds, equal mutual bandwidths, and identical bandwidth
// rows and columns towards every other processor. Mappings that differ only
// by such a swap have entrywise-identical timed instances.
func interchangeable(plat *platform.Platform, u, v int) bool {
	if plat.Speeds[u] != plat.Speeds[v] {
		return false
	}
	if plat.Bandwidths[u][v] != plat.Bandwidths[v][u] {
		return false
	}
	for x := 0; x < plat.NumProcs(); x++ {
		if x == u || x == v {
			continue
		}
		if plat.Bandwidths[u][x] != plat.Bandwidths[v][x] || plat.Bandwidths[x][u] != plat.Bandwidths[x][v] {
			return false
		}
	}
	return true
}

func cloneReplicas(replicas [][]int) [][]int {
	out := make([][]int, len(replicas))
	for i, r := range replicas {
		out[i] = append([]int(nil), r...)
	}
	return out
}
