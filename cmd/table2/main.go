// Command table2 regenerates Table 2 of the paper: counts of experiments
// without critical resource across random instance families, for both
// communication models.
//
// Usage:
//
//	table2 [-scale 0.1] [-seed 1] [-par 0]
//
// -scale shrinks per-row run counts (1 = the paper's full 5,152-run grid).
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

// run executes the campaign with the given arguments.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "fraction of the paper's run counts (0 < scale <= 1)")
	seed := fs.Int64("seed", 1, "base random seed")
	par := fs.Int("par", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return campaign(ctx, engine.New(engine.Options{Workers: *par}), *scale, *seed, stdout, stderr)
}

// campaign runs the Table 2 grid on eng. The table itself is the only
// output on stdout (progress and timing go to stderr), so the bytes written
// to stdout are deterministic for a fixed scale and seed at any worker
// count and under any cycle-ratio backend of eng — the property the
// golden-file test pins.
func campaign(ctx context.Context, eng *engine.Engine, scale float64, seed int64, stdout, stderr io.Writer) error {
	t0 := time.Now()
	results, err := exper.RunAllEngine(ctx, eng, scale, seed, func(rr exper.RowResult) {
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
