// Command mapsearch demonstrates the mapping searches built on the period
// evaluator: for a random heterogeneous platform, it compares the best
// one-to-one mapping (exhaustive when feasible), the greedy replicated
// mapping, randomized hill climbing, and the exact branch-and-bound — the
// NP-hard optimization problem the paper cites as motivation [3], now with
// a proven optimum to judge the heuristics against.
//
// The exhaustive, greedy and branch-and-bound evaluations route through the
// batch-evaluation engine: a work-stealing worker pool with a memo cache
// shared across the searches, so a partition revisited by a later search
// costs a lookup; the engine line at the end counts those. Overlap hill
// climbing prices its candidates column by column (Theorem 1) in a memo of
// its own, and strict hill climbing uses the engine. Ctrl-C cancels
// the search cleanly; the branch and bound then reports its best incumbent
// instead of the certificate.
//
// Usage:
//
//	mapsearch [-stages 3] [-procs 8] [-seed 1] [-model overlap] [-method all]
//	          [-restarts 20] [-workers 0]
//
// -method selects one search (exhaustive, greedy, random, bnb) or "all".
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/sched"
)

func main() {
	stages := flag.Int("stages", 3, "number of stages")
	procs := flag.Int("procs", 8, "number of processors")
	seed := flag.Int64("seed", 1, "random seed")
	modelName := flag.String("model", "overlap", "communication model")
	method := flag.String("method", "all", "search to run: all, exhaustive, greedy, random or bnb")
	restarts := flag.Int("restarts", 20, "hill-climbing restarts")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	flag.Parse()

	cm, err := model.Parse(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapsearch:", err)
		os.Exit(1)
	}
	switch *method {
	case "all", "exhaustive", "greedy", "random", "bnb":
	default:
		fmt.Fprintf(os.Stderr, "mapsearch: unknown -method %q (want all, exhaustive, greedy, random or bnb)\n", *method)
		os.Exit(1)
	}
	selected := func(name string) bool { return *method == "all" || *method == name }
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := engine.New(engine.Options{Workers: *workers})

	rng := rand.New(rand.NewSource(*seed))
	pipe := pipeline.Random(rng, *stages, 50, 500)
	plat := platform.Random(rng, *procs, 5, 25, 20, 200)
	fmt.Println("pipeline:", pipe)
	fmt.Println("speeds:  ", plat.Speeds)

	// With -method all the exhaustive walk is skipped quietly on platforms
	// it refuses (> 10 processors); explicitly requested, it runs and
	// reports its own refusal instead of silently doing nothing.
	if selected("exhaustive") && (*method == "exhaustive" || *procs <= 10) {
		if res, err := sched.ExhaustiveOneToOneEngine(ctx, eng, pipe, plat, cm); err == nil {
			fmt.Printf("\nbest one-to-one (exhaustive): period %v (%.3f)\n  %v\n",
				res.Period, res.Period.Float64(), res.Mapping)
		} else {
			fmt.Println("\nexhaustive:", err)
		}
	}
	if selected("greedy") {
		if res, err := sched.GreedyEngine(ctx, eng, pipe, plat, cm); err == nil {
			fmt.Printf("\ngreedy replicated: period %v (%.3f)\n  %v\n",
				res.Period, res.Period.Float64(), res.Mapping)
		} else {
			fmt.Println("\ngreedy:", err)
		}
	}
	if selected("random") {
		if res, err := sched.RandomSearchEngine(ctx, eng, pipe, plat, cm, rng, *restarts, 60); err == nil {
			fmt.Printf("\nrandom hill climbing (%d restarts): period %v (%.3f)\n  %v\n",
				*restarts, res.Period, res.Period.Float64(), res.Mapping)
		} else {
			fmt.Println("\nrandom search:", err)
		}
	}
	if selected("bnb") {
		if res, err := sched.BranchAndBoundEngine(ctx, eng, pipe, plat, cm); err == nil {
			status := "proven optimal"
			if !res.Proven {
				status = "best incumbent, search interrupted"
			}
			fmt.Printf("\nbranch and bound (%s): period %v (%.3f)\n  %v\n", status,
				res.Period, res.Period.Float64(), res.Mapping)
			fmt.Printf("  tree: %d nodes, %d leaves evaluated, %d branches pruned, %d infeasible, %d subtree roots\n",
				res.Stats.Nodes, res.Stats.Leaves, res.Stats.Pruned, res.Stats.Infeasible, res.Stats.Frontier)
		} else {
			fmt.Println("\nbranch and bound:", err)
		}
	}

	hits, misses := eng.CacheStats()
	fmt.Printf("\nengine: %d workers, memo cache %d hits / %d misses (%.0f%% of evaluations reused)\n",
		eng.Workers(), hits, misses, 100*float64(hits)/float64(max(hits+misses, 1)))
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "mapsearch: interrupted")
		os.Exit(130)
	}
}
