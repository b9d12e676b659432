// Package exper runs the experiment campaign of Section 5 and regenerates
// Table 2: for thousands of random instances, compare the period with the
// maximum resource cycle-time and count the (rare) cases without critical
// resource.
//
// Runs are distributed over the batch-evaluation engine's work-stealing
// worker pool; every instance is evaluated exactly (rational arithmetic),
// so "no critical resource" means a strict inequality P > Mct, not a
// floating-point artifact. Aggregation is index-ordered, so a row's result
// is identical at any parallelism.
package exper

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/workload"
)

// Row is one line of Table 2: a family of random instances under one model.
type Row struct {
	Label string
	Model model.CommModel
	// Specs lists the instance families pooled into this row (the paper
	// pools e.g. "(10,20) and (10,30)").
	Specs []workload.Spec
	// Runs is the total number of instances, split evenly across Specs.
	Runs int
}

// RowResult aggregates one row's outcomes.
type RowResult struct {
	Row
	Total      int
	NoCritical int
	// MaxGapPct is the largest relative gap (P-Mct)/Mct observed, in percent.
	MaxGapPct float64
	// MeanGapPct averages the gap over the no-critical-resource cases.
	MeanGapPct float64
}

// Table2Rows returns the paper's experiment grid for the given model. Sizes,
// ranges and run counts follow Table 2; scale (0 < scale <= 1) shrinks run
// counts proportionally for quick runs.
func Table2Rows(cm model.CommModel, scale float64, maxPathCount int64) []Row {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := func(runs int) int {
		v := int(float64(runs) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	spec := func(st, pr int, compLo, compHi, commLo, commHi int64) workload.Spec {
		return workload.Spec{
			Stages: st, Procs: pr,
			CompLo: compLo, CompHi: compHi,
			CommLo: commLo, CommHi: commHi,
			MaxPathCount: maxPathCount,
		}
	}
	return []Row{
		{
			Label: "(10,20)+(10,30) comp 5-15 comm 5-15", Model: cm, Runs: n(220),
			Specs: []workload.Spec{spec(10, 20, 5, 15, 5, 15), spec(10, 30, 5, 15, 5, 15)},
		},
		{
			Label: "(10,20)+(10,30) comp 10-1000 comm 10-1000", Model: cm, Runs: n(220),
			Specs: []workload.Spec{spec(10, 20, 10, 1000, 10, 1000), spec(10, 30, 10, 1000, 10, 1000)},
		},
		{
			Label: "(20,30) comp 5-15 comm 5-15", Model: cm, Runs: n(68),
			Specs: []workload.Spec{spec(20, 30, 5, 15, 5, 15)},
		},
		{
			Label: "(20,30) comp 10-1000 comm 10-1000", Model: cm, Runs: n(68),
			Specs: []workload.Spec{spec(20, 30, 10, 1000, 10, 1000)},
		},
		{
			Label: "(2,7)+(3,7) comp 1 comm 5-10", Model: cm, Runs: n(1000),
			Specs: []workload.Spec{spec(2, 7, 1, 1, 5, 10), spec(3, 7, 1, 1, 5, 10)},
		},
		{
			Label: "(2,7)+(3,7) comp 1 comm 10-50", Model: cm, Runs: n(1000),
			Specs: []workload.Spec{spec(2, 7, 1, 1, 10, 50), spec(3, 7, 1, 1, 10, 50)},
		},
	}
}

// DefaultMaxPathCount bounds m = lcm(m_i) for generated instances so the
// strict model's unfolded TPN stays tractable (see DESIGN.md: substitution
// for the authors' multi-day runs).
const DefaultMaxPathCount = 2520

// Run executes one row: Runs instances split across the row's specs, each
// evaluated under the row's model. Parallelism 0 means GOMAXPROCS.
func Run(row Row, seed int64, parallelism int) (RowResult, error) {
	return RunEngine(context.Background(), engine.New(engine.Options{Workers: parallelism}), row, seed)
}

// RunEngine executes one row on the given engine. Instance k derives its
// rng from seed+k, so the generated population is independent of worker
// count and interleaving; outcomes are aggregated in index order, making
// the whole RowResult (including which error is reported) deterministic.
func RunEngine(ctx context.Context, eng *engine.Engine, row Row, seed int64) (RowResult, error) {
	type outcome struct {
		noCrit bool
		gapPct float64
		err    error
	}
	outs := make([]outcome, row.Runs)
	if err := eng.ForEach(ctx, row.Runs, func(k int) {
		js := seed + int64(k)
		rng := workload.Seeded(js)
		sp := row.Specs[int(js)%len(row.Specs)]
		inst, err := sp.Instance(rng)
		workload.Release(rng)
		if err != nil {
			outs[k] = outcome{err: err}
			return
		}
		res, err := eng.Evaluate(engine.Task{Inst: inst, Model: row.Model})
		if err != nil {
			outs[k] = outcome{err: fmt.Errorf("exper: %v on %v: %w", row.Model, sp, err)}
			return
		}
		o := outcome{}
		if !res.HasCriticalResource() {
			o.noCrit = true
			o.gapPct = res.Gap().Float64() * 100
		}
		outs[k] = o
	}); err != nil {
		return RowResult{Row: row}, err
	}

	rr := RowResult{Row: row}
	var gapSum float64
	var firstErr error
	for _, o := range outs {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		rr.Total++
		if o.noCrit {
			rr.NoCritical++
			gapSum += o.gapPct
			if o.gapPct > rr.MaxGapPct {
				rr.MaxGapPct = o.gapPct
			}
		}
	}
	if firstErr != nil {
		return rr, firstErr
	}
	if rr.NoCritical > 0 {
		rr.MeanGapPct = gapSum / float64(rr.NoCritical)
	}
	return rr, nil
}

// RunAll executes rows for both models and returns all results.
func RunAll(scale float64, seed int64, parallelism int, progress func(RowResult)) ([]RowResult, error) {
	return RunAllEngine(context.Background(), engine.New(engine.Options{Workers: parallelism}), scale, seed, progress)
}

// RunAllEngine executes rows for both models on one shared engine.
func RunAllEngine(ctx context.Context, eng *engine.Engine, scale float64, seed int64, progress func(RowResult)) ([]RowResult, error) {
	var out []RowResult
	for _, cm := range model.Models() {
		for i, row := range Table2Rows(cm, scale, DefaultMaxPathCount) {
			rr, err := RunEngine(ctx, eng, row, seed+int64(i)*1_000_003+int64(cm)*7_000_009)
			if err != nil {
				return out, err
			}
			out = append(out, rr)
			if progress != nil {
				progress(rr)
			}
		}
	}
	return out, nil
}

// WriteTable renders results in the layout of Table 2.
func WriteTable(w io.Writer, results []RowResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tsize / times\t#exp without critical resource / total\tmax gap")
	for _, r := range results {
		gap := ""
		if r.NoCritical > 0 {
			gap = fmt.Sprintf("diff less than %.0f%%", r.MaxGapPct+0.999)
		}
		fmt.Fprintf(tw, "%v\t%s\t%d / %d\t%s\n", r.Model, r.Label, r.NoCritical, r.Total, gap)
	}
	return tw.Flush()
}
