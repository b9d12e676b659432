// Command scaling regenerates the runtime-vs-duplication observation of
// Section 5 ("the computation times closely depend on the duplication
// factor of each stage"): it times the Theorem 1 polynomial algorithm
// against the general unfolded-TPN method as the replication product grows.
//
// Points run through the batch-evaluation engine; the default of one worker
// keeps the wall-time columns honest (each point times an unloaded core),
// while -workers > 1 trades timing fidelity for turnaround. Ctrl-C cancels.
//
// Usage:
//
//	scaling [-seed 2009] [-workers 1] [-backend auto]
//
// -backend selects the cycle-ratio engine (auto, karp, howard; "karp" is
// cycle iteration on the compiled plan): the sweep's periods are identical
// under every backend, but the unfolded-TPN wall-time column directly
// exposes the cost gap between the two engines on growing nets.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/exper"
)

func main() {
	seed := flag.Int64("seed", 2009, "random seed for the instance times")
	workers := flag.Int("workers", 1, "engine worker-pool size (1 = faithful per-point timings)")
	backendName := flag.String("backend", "auto", "cycle-ratio backend: auto, karp or howard")
	flag.Parse()

	backend, err := cycles.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := engine.New(engine.Options{Workers: *workers, Backend: backend})

	pts, err := exper.RuntimeSweepEngine(ctx, eng, *seed, exper.DefaultSweepPairs())
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
	fmt.Println("Runtime vs duplication factor (overlap model, 2-stage instances)")
	if err := exper.WriteSweep(os.Stdout, pts); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}
