// Package repro computes the steady-state throughput of replicated
// streaming workflows (linear pipelines) mapped onto fully heterogeneous
// platforms, reproducing
//
//	A. Benoit, M. Gallet, B. Gaujal, Y. Robert,
//	"Computing the throughput of replicated workflows on heterogeneous
//	platforms", ICPP 2009.
//
// A workflow is a chain of stages S0..S(n-1); stage k costs w_k FLOP and
// ships a δ_k-byte file to its successor. A mapping assigns each stage one
// or more processors (replication); replicas serve data sets in round-robin
// order. Given the mapping, this package computes the exact period P (the
// steady-state interval between consecutive data-set completions, the
// inverse of the throughput) under two communication models:
//
//   - Overlap (OVERLAP ONE-PORT): receiving, computing and sending overlap
//     on a processor; computed with the paper's polynomial algorithm
//     (Theorem 1).
//   - Strict (STRICT ONE-PORT): the three activities are serialized;
//     computed by building the unfolded timed Petri net and extracting its
//     critical cycle.
//
// All arithmetic is exact (int64 rationals), so the headline comparison of
// the paper — whether P strictly exceeds the largest resource cycle-time
// Mct, i.e. whether the schedule has no critical resource — is decided
// exactly rather than within floating-point noise. The period is a maximum
// cycle ratio, an exact rational, so one engine answers every call; it
// picks its cycle-ratio algorithm per net from the net's structure and
// never changes a result. The critical cycle comes from cycle iteration: a
// potential check at a ratio λ either proves that no cycle exceeds λ or
// hands back a cycle that does, whose ratio becomes the next λ. On an
// unfolded net it starts at the lower bound Mct·m, so a net with a critical
// resource costs one check. The batch
// searches rule a candidate mapping out with an exact cutoff against their
// incumbent — first the bound P ≥ Mct, then cycle iteration stopped at the
// first cycle that reaches the incumbent — so most candidates never get a
// full critical-cycle computation, and every result stays exact.
//
// # Quick start
//
//	pipe, _ := repro.NewPipeline([]int64{200, 1500, 800}, []int64{1000, 4000})
//	plat := repro.UniformPlatform(6, 100, 1000)
//	mapp, _ := repro.NewMapping([][]int{{0}, {1, 2, 3}, {4}}, 6)
//	inst, _ := repro.NewInstance(pipe, plat, mapp)
//	res, _ := repro.Throughput(inst, repro.Overlap)
//	fmt.Println("period:", res.Period, "Mct:", res.Mct)
//
// For large campaigns — Table 2's thousands of random instances, mapping
// search, Monte-Carlo sweeps — use the concurrent batch-evaluation engine,
// which runs a fixed work-stealing worker pool with a memoization cache and
// returns results bit-identical to the serial path at any worker count:
//
//	eng := repro.NewEngine(repro.EngineOptions{})
//	outs, _ := eng.EvaluateBatch(ctx, []repro.EvalTask{{Inst: inst, Model: repro.Overlap}})
//	best, _ := eng.SearchMappings(ctx, pipe, plat, repro.Overlap, rng)
//
// SearchMappings is heuristic; SearchMappingsExact runs the parallel
// branch-and-bound search instead and, when its result carries Proven,
// certifies that no replicated mapping has a smaller period:
//
//	exact, _ := eng.SearchMappingsExact(ctx, pipe, plat, repro.Overlap)
//
// The same solves are reachable over HTTP: Serve (or cmd/serve) exposes
// evaluate/batch/search/sweep endpoints plus the async job surface
// /v1/jobs, where long-running searches run as first-class jobs with
// deterministic IDs, pollable progress and cooperative cancellation (see
// the Job, JobProgress, JobSubmitRequest and JobListResponse aliases, and
// ErrorInfo/ErrorBody for the unified error envelope every non-2xx answer
// uses).
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured record.
package repro
