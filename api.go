package repro

import (
	"context"
	"io"
	"math/rand"
	"net/http"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/examplesdata"
	"repro/internal/exper"
	"repro/internal/gantt"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
)

// Re-exported core types. The implementation lives in internal packages; the
// aliases below form the supported public surface.
type (
	// Rat is an exact rational number; all periods and cycle-times are Rats.
	Rat = rat.Rat
	// Pipeline is the application: a linear chain of stages.
	Pipeline = pipeline.Pipeline
	// Platform is the heterogeneous target: speeds and link bandwidths.
	Platform = platform.Platform
	// Mapping assigns each stage its ordered replica list.
	Mapping = mapping.Mapping
	// Instance is a fully-timed (pipeline, platform, mapping) triple.
	Instance = model.Instance
	// CommModel selects Overlap or Strict communications.
	CommModel = model.CommModel
	// Result carries the computed period, Mct and metadata.
	Result = core.Result
	// Resource is the per-processor cycle-time decomposition.
	Resource = model.Resource
	// Trace is a simulated schedule prefix.
	Trace = sim.Trace
	// GanttOptions controls ASCII Gantt rendering.
	GanttOptions = gantt.Options
	// MappingResult is a mapping found by the search heuristics.
	MappingResult = sched.Result
	// ExactMappingResult is the outcome of the exact branch-and-bound
	// search: a mapping, its period, the Proven certificate and the tree
	// statistics (nodes, leaves, pruned, infeasible, frontier).
	ExactMappingResult = sched.ExactResult
	// Report is the full per-resource analysis produced by Analyze.
	Report = core.Report
	// ResourceReport is one row of a Report.
	ResourceReport = core.ResourceReport
	// Perturbation configures dynamic-platform Monte-Carlo sampling.
	Perturbation = dynamic.Perturbation
	// DynamicStats summarizes a Monte-Carlo run.
	DynamicStats = dynamic.Stats
	// EngineOptions configures the batch-evaluation engine.
	EngineOptions = engine.Options
	// EvalTask is one batch entry: an instance under a communication model.
	EvalTask = engine.Task
	// EvalOutcome is the per-task result of an engine batch.
	EvalOutcome = engine.Outcome
	// SweepPoint is one point of the runtime-vs-duplication sweep.
	SweepPoint = exper.SweepPoint
	// Backend selects the exact maximum-cycle-ratio engine (see the
	// Backend* constants). All backends return identical exact results;
	// they differ only in running time.
	Backend = cycles.Backend
	// ServerOptions configures the HTTP evaluation service (see Serve).
	ServerOptions = service.Options
	// Job is the wire status of one async job on the /v1/jobs surface:
	// deterministic ID, kind, state and live progress.
	Job = service.Job
	// JobProgress is a job's live progress block (bnb tree counters for
	// search jobs, points done/total for sweeps).
	JobProgress = service.JobProgress
	// JobSubmitRequest is the POST /v1/jobs body: a kind plus the matching
	// synchronous request payload.
	JobSubmitRequest = service.JobSubmitRequest
	// JobListResponse is the GET /v1/jobs answer.
	JobListResponse = service.JobListResponse
	// ErrorInfo is the unified error envelope's payload: a stable
	// machine-readable code plus a human-readable message.
	ErrorInfo = service.ErrorInfo
	// ErrorBody is the complete error answer, {"error": {code, message}} —
	// every non-2xx response of the service and the cluster router uses it.
	ErrorBody = service.ErrorBody
)

// Cycle-ratio backends. BackendAuto (the zero value, and the default of
// Solver and Engine) routes by token-edge share: cycle iteration on the
// compiled plan where token edges are sparse, Howard policy iteration where
// they are plentiful — deterministically, so batch results stay
// bit-identical at any choice. BackendKarp ("karp") selects the plan route;
// it keeps the name of the Karp engine cycle iteration replaced. Every backend serves the batch searches' exact cutoff (branch
// and bound, greedy, exhaustive rule out a candidate as soon as its period
// is proven at least their incumbent).
const (
	BackendAuto   = cycles.BackendAuto
	BackendKarp   = cycles.BackendKarp
	BackendHoward = cycles.BackendHoward
)

// BackendFloatScreen named the float-screening tier, which the exact
// cutoff replaced.
//
// Deprecated: it equals BackendAuto.
const BackendFloatScreen = BackendAuto

// ParseBackend parses "auto", "karp" or "howard" — the values the
// commands' -backend flags accept; "float-screen" is a deprecated alias of
// "auto".
func ParseBackend(s string) (Backend, error) { return cycles.ParseBackend(s) }

// Communication models.
const (
	// Overlap is the OVERLAP ONE-PORT model (full duplex, compute overlap).
	Overlap = model.Overlap
	// Strict is the STRICT ONE-PORT model (serialized receive/compute/send).
	Strict = model.Strict
)

// NewPipeline builds an n-stage pipeline from stage sizes (FLOP) and the
// n-1 file sizes (bytes).
func NewPipeline(work []int64, fileSizes []int64) (*Pipeline, error) {
	return pipeline.New(work, fileSizes)
}

// NewPlatform builds a platform from processor speeds (FLOP/s) and the
// bandwidth matrix (bytes/s; 0 = no link).
func NewPlatform(speeds []int64, bandwidths [][]int64) (*Platform, error) {
	return platform.New(speeds, bandwidths)
}

// UniformPlatform builds a homogeneous fully-connected platform.
func UniformPlatform(n int, speed, bandwidth int64) *Platform {
	return platform.Uniform(n, speed, bandwidth)
}

// StarPlatform builds the logical platform induced by a physical star
// network: b_{u,v} = min(linkCaps[u], linkCaps[v]).
func StarPlatform(speeds, linkCaps []int64) (*Platform, error) {
	return platform.Star(speeds, linkCaps)
}

// NewMapping builds and validates a mapping (stage -> ordered replica list).
func NewMapping(replicas [][]int, numProcs int) (*Mapping, error) {
	return mapping.New(replicas, numProcs)
}

// NewInstance assembles and validates a timed instance.
func NewInstance(pipe *Pipeline, plat *Platform, mapp *Mapping) (*Instance, error) {
	return model.FromMapped(pipe, plat, mapp)
}

// InstanceFromTimes builds an instance directly from operation durations:
// comp[i][a] is the computation time of replica a of stage i, and
// comm[i][a][b] the transfer time of file F_i from replica a to replica b.
func InstanceFromTimes(comp [][]Rat, comm [][][]Rat) (*Instance, error) {
	return model.FromTimes(comp, comm)
}

// Throughput computes the exact steady-state period of the instance under
// the given model, choosing the best algorithm (Theorem 1 for Overlap, the
// unfolded timed Petri net for Strict).
func Throughput(inst *Instance, cm CommModel) (Result, error) {
	return core.Period(inst, cm)
}

// ThroughputTPN forces the general unfolded-TPN computation (both models).
func ThroughputTPN(inst *Instance, cm CommModel) (Result, error) {
	return core.PeriodTPN(inst, cm)
}

// Solver is a reusable single-threaded period-computation context: it owns
// the unfolded-net builder, the cycle-ratio system and the cycle-iteration
// workspace, so a loop evaluating many instances pays the allocations once.
// Results are bit-identical to Throughput/ThroughputTPN. A Solver is not
// safe for concurrent use — give each goroutine its own, or use Engine,
// whose workers already do.
type Solver struct {
	s *core.Solver
}

// NewSolver returns a solver with the given row cap for the unfolded-TPN
// method (0 = the default cap of 20000 rows) and the automatic cycle-ratio
// backend; use SetBackend to force one.
func NewSolver(maxRows int) *Solver {
	s := core.NewSolver()
	s.MaxRows = maxRows
	return &Solver{s: s}
}

// SetBackend selects the solver's cycle-ratio backend (BackendAuto,
// BackendKarp or BackendHoward) and returns the solver for chaining.
// Results are identical across backends; only the running time changes.
func (s *Solver) SetBackend(b Backend) *Solver {
	s.s.Backend = b
	return s
}

// Throughput computes the period on the solver's reused scratch.
func (s *Solver) Throughput(inst *Instance, cm CommModel) (Result, error) {
	return s.s.Period(inst, cm)
}

// ThroughputTPN forces the unfolded-TPN computation on the solver's reused
// scratch.
func (s *Solver) ThroughputTPN(inst *Instance, cm CommModel) (Result, error) {
	return s.s.PeriodTPN(inst, cm)
}

// Resources returns the per-processor cycle-time decomposition
// (Cin/Ccomp/Cout and the per-model Cexec); Mct is their maximum.
func Resources(inst *Instance) []Resource {
	return inst.Resources()
}

// CriticalResources returns the resources attaining Mct under the model.
func CriticalResources(inst *Instance, cm CommModel) []Resource {
	return inst.CriticalResources(cm)
}

// Analyze produces the full report: period, critical-cycle resources and
// columns, per-resource utilization/slack and per-replica stream periods.
func Analyze(inst *Instance, cm CommModel) (*Report, error) {
	return core.Analyze(inst, cm)
}

// Simulate unrolls the instance's schedule for `periods` macro-periods
// (periods × lcm(m_i) data sets) and returns the busy-interval trace.
func Simulate(inst *Instance, cm CommModel, periods int) (*Trace, error) {
	return sim.Run(inst, cm, periods)
}

// RenderGantt writes an ASCII Gantt chart of a trace (cf. Figures 7 and 12).
func RenderGantt(w io.Writer, tr *Trace, opts GanttOptions) error {
	return gantt.Render(w, tr, opts)
}

// FindMappingGreedy searches for a high-throughput mapping greedily.
func FindMappingGreedy(pipe *Pipeline, plat *Platform, cm CommModel) (MappingResult, error) {
	return sched.Greedy(pipe, plat, cm)
}

// FindMappingRandom runs randomized hill climbing with restarts.
func FindMappingRandom(pipe *Pipeline, plat *Platform, cm CommModel, rng *rand.Rand, restarts, moves int) (MappingResult, error) {
	return sched.RandomSearch(pipe, plat, cm, rng, restarts, moves)
}

// FindMappingBest runs every heuristic (greedy, random restarts, simulated
// annealing) and returns the best mapping found.
func FindMappingBest(pipe *Pipeline, plat *Platform, cm CommModel, rng *rand.Rand) (MappingResult, error) {
	return sched.BestOf(pipe, plat, cm, rng)
}

// FindMappingExact runs the exact branch-and-bound search over all
// replicated mappings (greedy warm start, admissible bounding, symmetry
// breaking within interchangeable processors). When the result's Proven
// flag is set, no replicated mapping has a smaller period — the ground
// truth the heuristics are judged against. The search is anytime: under a
// context deadline use Engine.SearchMappingsExact instead.
func FindMappingExact(pipe *Pipeline, plat *Platform, cm CommModel) (ExactMappingResult, error) {
	return sched.BranchAndBound(pipe, plat, cm)
}

// LatencyStats summarizes steady-state end-to-end data-set latency with
// arrivals throttled to the period (the latency/throughput trade-off of the
// replication literature).
type LatencyStats = sim.LatencyStats

// Latency measures per-data-set latency over a steady-state window.
func Latency(inst *Instance, cm CommModel, periods int) (*LatencyStats, error) {
	return sim.Latency(inst, cm, periods)
}

// MonteCarloDynamic evaluates the period distribution under random
// speed/bandwidth fluctuations (the paper's future-work direction).
func MonteCarloDynamic(inst *Instance, cm CommModel, pert Perturbation, runs int, seed int64, parallelism int) (DynamicStats, error) {
	return dynamic.MonteCarlo(inst, cm, pert, runs, seed, parallelism)
}

// Engine is the concurrent batch-evaluation subsystem: a fixed
// work-stealing worker pool with a shared memoization cache, behind which
// every large evaluation campaign of this repository runs. Results are
// bit-identical to the serial path (exact arithmetic, index-ordered
// output) at any worker count. An Engine is safe for concurrent use and is
// worth reusing across calls: the memo cache persists, so a mapping
// already evaluated by one search costs a lookup in the next.
type Engine struct {
	eng *engine.Engine
}

// NewEngine builds a batch-evaluation engine. The zero EngineOptions give
// a GOMAXPROCS-sized pool with the default memo cache.
func NewEngine(opts EngineOptions) *Engine {
	return &Engine{eng: engine.New(opts)}
}

// EvaluateBatch computes the period of every task on the worker pool.
// out[i] corresponds to tasks[i] regardless of worker interleaving, and
// each Result is identical to what Throughput returns for the same
// arguments. The only batch-level error is context cancellation.
func (e *Engine) EvaluateBatch(ctx context.Context, tasks []EvalTask) ([]EvalOutcome, error) {
	return e.eng.EvaluateBatch(ctx, tasks)
}

// SearchMappings runs every mapping heuristic (greedy construction,
// randomized hill climbing, simulated annealing) through the engine and
// returns the best mapping found. Candidate evaluations parallelize over
// the pool and memoize, so partitions revisited across heuristics are
// computed once.
func (e *Engine) SearchMappings(ctx context.Context, pipe *Pipeline, plat *Platform, cm CommModel, rng *rand.Rand) (MappingResult, error) {
	return sched.BestOfEngine(ctx, e.eng, pipe, plat, cm, rng)
}

// SearchMappingsExact runs the exact branch-and-bound search on the
// engine's pool with deterministic work partitioning: the result (mapping,
// period, proven flag, node counts) is bit-identical at any worker count.
// Under a context deadline the search turns anytime — the best incumbent
// found so far is returned with Proven false.
func (e *Engine) SearchMappingsExact(ctx context.Context, pipe *Pipeline, plat *Platform, cm CommModel) (ExactMappingResult, error) {
	return sched.BranchAndBoundEngine(ctx, e.eng, pipe, plat, cm)
}

// Sweep runs the runtime-vs-duplication sweep (cf. cmd/scaling) on the
// engine: each replication vector times the Theorem 1 polynomial algorithm
// against the general unfolded-TPN method. Pass exper.DefaultSweepPairs-
// style vectors, e.g. [][]int{{2, 3}, {5, 21, 27, 11}}.
func (e *Engine) Sweep(ctx context.Context, seed int64, pairs [][]int) ([]SweepPoint, error) {
	return exper.RuntimeSweepEngine(ctx, e.eng, seed, pairs)
}

// MonteCarlo runs the dynamic-platform Monte-Carlo campaign on the engine.
func (e *Engine) MonteCarlo(ctx context.Context, inst *Instance, cm CommModel, pert Perturbation, runs int, seed int64) (DynamicStats, error) {
	return dynamic.MonteCarloEngine(ctx, e.eng, inst, cm, pert, runs, seed)
}

// CacheStats returns the engine's cumulative memo-cache hits and misses.
func (e *Engine) CacheStats() (hits, misses int64) { return e.eng.CacheStats() }

// Workers returns the engine's fixed pool size.
func (e *Engine) Workers() int { return e.eng.Workers() }

// Serve runs the batched-evaluation HTTP service on addr until ctx is
// canceled, then shuts down gracefully. The service exposes /v1/instances
// (register an instance once and refer to it by content ID in evaluate and
// batch bodies), /v1/evaluate, /v1/batch, /v1/search, /v1/sweep, the async
// job surface /v1/jobs (submit long-running search/sweep work, poll
// progress, fetch results, cancel — see Job and JobSubmitRequest), /healthz
// and /metrics; every numeric
// answer is the exact rational the library computes. logf, when non-nil,
// receives one "listening on <addr>" line once the listener is bound (pass
// an addr ending in ":0" to pick a free port). See cmd/serve for the
// command-line front end, cmd/loadgen for a load driver and cmd/reproctl
// for the admin CLI.
func Serve(ctx context.Context, addr string, opts ServerOptions, logf func(format string, args ...any)) error {
	return service.Serve(ctx, addr, opts, logf)
}

// NewServerHandler returns the evaluation service's http.Handler for
// embedding into an existing server or httptest.
func NewServerHandler(opts ServerOptions) http.Handler {
	return service.NewServer(opts).Handler()
}

// ExampleA returns the paper's Example A instance (Figure 2), reconstructed
// from the published numbers: overlap period 189, strict period 1384/6.
func ExampleA() *Instance { return examplesdata.ExampleA() }

// ExampleB returns the paper's Example B instance (Figure 6): overlap-model
// period 3500/12 with no critical resource (Mct = 3100/12).
func ExampleB() *Instance { return examplesdata.ExampleB() }

// ExampleC returns an instance with the paper's Example C replication
// structure (5, 21, 27, 11): m = 10395 paths, still polynomial to evaluate.
func ExampleC() *Instance { return examplesdata.ExampleC() }
