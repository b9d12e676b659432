// The explicit work plan: the deterministic frontier as serializable root
// descriptors, and an Executor seam so subtrees can run anywhere — in
// process (LocalExecutor), on another node (the cluster coordinator's
// remote executor), or not at all (checkpoint replay). The plan layer is
// what makes the search distributable and resumable without touching the
// bit-identity guarantee: a Root round-trips through JSON exactly (the
// bound is carried as an exact rational string), and merge order is the
// frontier index, never arrival order.

package bnb

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// Root is one subtree root of the deterministic frontier: the assignments
// of stages 0..Depth-1 plus the bookkeeping a walker needs to resume the
// enumeration below it. Roots are JSON-codable and exact — LB is the
// assigned-stage lower bound as a rational string — so they can be shipped
// over the wire or persisted to a checkpoint and re-executed later with
// bit-identical outcomes. Index is the root's position in frontier order,
// which is also its merge priority.
type Root struct {
	Index    int     `json:"index"`
	Depth    int     `json:"depth"`
	Replicas [][]int `json:"replicas,omitempty"`
	Used     []int   `json:"used"`
	Free     int     `json:"free"`
	LB       string  `json:"lb"`
}

// node converts the wire form back into the walker's internal root.
func (r Root) node() (*node, error) {
	lb, err := rat.Parse(r.LB)
	if err != nil {
		return nil, fmt.Errorf("bnb: root %d has malformed bound: %w", r.Index, err)
	}
	return &node{
		replicas: cloneReplicas(r.Replicas),
		used:     append([]int(nil), r.Used...),
		free:     r.Free,
		lb:       lb,
	}, nil
}

func rootOf(nd *node, index, depth int) Root {
	return Root{
		Index:    index,
		Depth:    depth,
		Replicas: cloneReplicas(nd.replicas),
		Used:     append([]int(nil), nd.used...),
		Free:     nd.free,
		LB:       nd.lb.String(),
	}
}

// SubResult is the outcome of exploring one subtree root. Best is reported
// only when the subtree found a mapping strictly better than the warm
// period it was dispatched with; BestPeriod is its exact period as a
// rational string. Complete false means the exploration was cut short
// (deadline, cancel, or a lost remote worker) — the overall search result
// then loses its Proven flag, exactly as an in-process interruption would.
type SubResult struct {
	BestReplicas [][]int `json:"bestReplicas,omitempty"`
	BestPeriod   string  `json:"bestPeriod,omitempty"`
	Complete     bool    `json:"complete"`
	Stats        Stats   `json:"stats"`
}

// Finished is one explored root as a checkpoint keeps it: the root and the
// warm period it was dispatched with, and what exploring it found. Search
// replays it only when both still equal the current plan's root and
// dispatch warm period. A record left by another plan — a build with
// different bounds expands a different frontier, a different warm start
// prunes differently — then re-runs the root instead of vouching for a
// subtree it never explored.
type Finished struct {
	Root   Root      `json:"root"`
	Warm   string    `json:"warm"`
	Result SubResult `json:"result"`
}

// sameRoot reports whether r and o describe the same subtree at the same
// frontier index.
func (r Root) sameRoot(o Root) bool {
	return r.Index == o.Index && r.Depth == o.Depth && r.Free == o.Free && r.LB == o.LB &&
		slices.Equal(r.Used, o.Used) && slices.EqualFunc(r.Replicas, o.Replicas, slices.Equal[[]int])
}

// Executor runs one frontier root to completion. warm is the pruning
// reference the root starts from, as an exact rational string ("" means no
// reference: the subtree keeps everything feasible it finds). RunRoot must
// be safe for concurrent use; Search calls it from Options.Workers
// goroutines. A returned error means the root was not explored at all
// (infrastructure failure) — the search continues, unproven. A cancelled
// context is not an error: the executor reports what it found with
// Complete false, matching the in-process anytime behavior.
type Executor interface {
	RunRoot(ctx context.Context, root Root, warm string) (SubResult, error)
}

// Frontier expands the first tree levels into the deterministic frontier —
// the same expansion Search performs, exposed as a pure function of the
// problem, the warm period, and the target size. It never evaluates a
// leaf, so no engine is needed: a coordinator can plan a search it has no
// solver for. The returned Stats cover the expansion (Nodes/Pruned and the
// Frontier size); the root depth is uniform across the slice.
func Frontier(ctx context.Context, pipe *pipeline.Pipeline, plat *platform.Platform, warmPeriod string, target int) ([]Root, Stats, error) {
	// The communication model never matters here, by design: the frontier
	// is model-free. Only the walkers below it apply the strict cycle-time
	// bound, LocalExecutor to a root's own stages before it walks.
	pr, err := newProblem(pipe, plat, model.Overlap, Options{})
	if err != nil {
		return nil, Stats{}, err
	}
	if warmPeriod != "" {
		p, err := rat.Parse(warmPeriod)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("bnb: malformed warm period: %w", err)
		}
		pr.warm = &incumbent{period: p}
	}
	if target <= 0 {
		target = defaultFrontierTarget
	}
	frontier, depth, stats, interrupted := expandFrontier(ctx, pr, nil, target)
	if interrupted {
		return nil, Stats{}, ctx.Err()
	}
	roots := make([]Root, len(frontier))
	for i, nd := range frontier {
		roots[i] = rootOf(nd, i, depth)
	}
	return roots, stats, nil
}

// LocalExecutor explores subtree roots with the in-process walker — the
// same code path Search uses when no Executor is configured. It exists as
// a public type so a serving node can run roots shipped to it by a
// coordinator (the /v1/internal/subtree endpoint) with the exact pruning
// and counting semantics of a solo search.
type LocalExecutor struct {
	pr  *problem
	eng *engine.Engine
}

// NewLocalExecutor binds a problem to an engine. Options contribute
// OnProgress (streamed per leaf, from RunRoot's calling goroutine); the
// remaining fields are ignored here.
func NewLocalExecutor(eng *engine.Engine, pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, opts Options) (*LocalExecutor, error) {
	pr, err := newProblem(pipe, plat, cm, opts)
	if err != nil {
		return nil, err
	}
	return &LocalExecutor{pr: pr, eng: eng}, nil
}

// RunRoot explores one root depth-first against the given warm period.
func (e *LocalExecutor) RunRoot(ctx context.Context, root Root, warm string) (SubResult, error) {
	nd, err := root.node()
	if err != nil {
		return SubResult{}, err
	}
	ref := rat.Rat{}
	hasRef := false
	if warm != "" {
		if ref, err = rat.Parse(warm); err != nil {
			return SubResult{}, fmt.Errorf("bnb: malformed warm period: %w", err)
		}
		hasRef = true
	}
	return e.run(ctx, nd, root.Depth, ref, hasRef), nil
}

// run explores the subtree below nd, whose stages < depth are assigned,
// against the pruning reference ref (none when hasRef is false). nd is
// read, never modified.
func (e *LocalExecutor) run(ctx context.Context, nd *node, depth int, ref rat.Rat, hasRef bool) SubResult {
	w := newWalker(e.pr, ctx, e.eng, nd, depth, e.pr.n, nil, ref, hasRef)
	lb := nd.lb
	// The frontier is model-free, so the root's own stage pairs get the
	// strict cycle-time bound here, once, before the walk; a missing link
	// turns it off for the whole subtree.
	for i := 0; w.cycle && i < depth; i++ {
		ct, ok := w.cycleBound(i)
		if !ok {
			break
		}
		if hasRef && !ct.Less(ref) {
			w.st.Pruned++
			w.publish()
			return SubResult{Complete: true, Stats: w.st}
		}
		lb = rat.Max(lb, ct)
	}
	runErr := w.dfs(depth, lb)
	w.publish()
	res := SubResult{Complete: runErr == nil, Stats: w.st}
	if w.best != nil {
		res.BestReplicas = w.best.mapp.Replicas
		res.BestPeriod = w.best.period.String()
	}
	return res
}

// incumbentOf reconstructs the merge-layer incumbent from a wire result.
func (r SubResult) incumbentOf(numProcs int) (*incumbent, error) {
	if r.BestPeriod == "" {
		return nil, nil
	}
	period, err := rat.Parse(r.BestPeriod)
	if err != nil {
		return nil, fmt.Errorf("bnb: subresult has malformed period: %w", err)
	}
	m, err := mapping.New(cloneReplicas(r.BestReplicas), numProcs)
	if err != nil {
		return nil, fmt.Errorf("bnb: subresult has invalid mapping: %w", err)
	}
	return &incumbent{mapp: m, period: period}, nil
}

// newProblem validates the instance and builds the shared read-only search
// context that every construction path (Search, Frontier,
// NewLocalExecutor) shares.
func newProblem(pipe *pipeline.Pipeline, plat *platform.Platform, cm model.CommModel, opts Options) (*problem, error) {
	n := pipe.NumStages()
	p := plat.NumProcs()
	if n > p {
		return nil, fmt.Errorf("bnb: %d stages need at least as many processors (got %d)", n, p)
	}
	pr := &problem{
		pipe:       pipe,
		plat:       plat,
		cm:         cm,
		n:          n,
		classes:    classesOf(plat),
		onProgress: opts.OnProgress,
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return pr.work(order[a]) > pr.work(order[b]) })
	for i := 0; i <= n; i++ {
		open := slices.DeleteFunc(slices.Clone(order), func(j int) bool { return j < i })
		pr.heavy = append(pr.heavy, open[:min(len(open), relaxCap)])
	}
	if opts.Incumbent != nil {
		pr.warm = &incumbent{mapp: opts.Incumbent, period: opts.IncumbentPeriod}
	}
	return pr, nil
}

// expandFrontier runs phase 1: breadth-first expansion of the first levels
// until the frontier reaches target roots (or the tree runs out of depth).
// The expansion prunes against the warm start only, with the
// model-free bounds, so the result is a pure function of the problem, warm
// period, and target — independent of workers, engine, backend and
// communication model. eng may be nil: expansion never reaches a
// leaf (the depth limit stays below n), so the engine is never touched.
func expandFrontier(ctx context.Context, pr *problem, eng *engine.Engine, target int) (frontier []*node, depth int, stats Stats, interrupted bool) {
	frontier = []*node{{used: make([]int, len(pr.classes)), free: pr.plat.NumProcs()}}
	var ref rat.Rat
	hasRef := false
	if pr.warm != nil {
		ref = pr.warm.period
		hasRef = true
	}
	for depth < pr.n-1 && len(frontier) < target && len(frontier) > 0 {
		var next []*node
		for _, nd := range frontier {
			w := newWalker(pr, ctx, eng, nd, depth, depth+1, &next, ref, hasRef)
			if err := w.dfs(depth, nd.lb); err != nil {
				interrupted = true
			}
			w.publish()
			stats.add(w.st)
			if interrupted {
				break
			}
		}
		if interrupted {
			break
		}
		frontier = next
		depth++
	}
	stats.Frontier = len(frontier)
	return frontier, depth, stats, interrupted
}

var _ Executor = (*LocalExecutor)(nil)
