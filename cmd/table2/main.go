// Command table2 regenerates Table 2 of the paper: counts of experiments
// without critical resource across random instance families, for both
// communication models.
//
// Usage:
//
//	table2 [-scale 0.1] [-seed 1] [-par 0] [-backend auto]
//
// -scale shrinks per-row run counts (1 = the paper's full 5,152-run grid).
// -backend selects the cycle-ratio engine (auto, karp, howard; "karp" is
// cycle iteration on the compiled plan); every backend produces the
// identical table, only the wall time moves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/exper"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // usage already printed
		}
		fmt.Fprintln(os.Stderr, "table2:", err)
		os.Exit(1)
	}
}

// run executes the campaign with the given arguments. The table itself is
// the only output on stdout (progress and timing go to stderr), so the
// bytes written to stdout are deterministic for a fixed scale, seed and
// backend at any worker count — the property the golden-file test pins.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "fraction of the paper's run counts (0 < scale <= 1)")
	seed := fs.Int64("seed", 1, "base random seed")
	par := fs.Int("par", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	backendName := fs.String("backend", "auto", "cycle-ratio backend: auto, karp or howard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := cycles.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	eng := engine.New(engine.Options{Workers: *par, Backend: backend})

	t0 := time.Now()
	results, err := exper.RunAllEngine(ctx, eng, *scale, *seed, func(rr exper.RowResult) {
		fmt.Fprintf(stderr, "done: %-8v %-45s %4d runs  nocrit=%d  (%v)\n",
			rr.Model, rr.Label, rr.Total, rr.NoCritical, time.Since(t0).Round(time.Millisecond))
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Table 2 — numbers of experiments without critical resource")
	if err := exper.WriteTable(stdout, results); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "total wall time: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}
