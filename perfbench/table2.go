package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// The table2-grid workload runs the paper's full 5,152-instance Table 2
// campaign, both models, with exper.RunAllEngine on a fresh engine per pass.
// Every instance is distinct, so the whole cost is instance generation and
// the exact period: Theorem 1 for overlap, the unfolded TPN plus Karp or
// Howard for strict. A solver-kernel change shows here; a serving change
// must not.

// table2Refs holds one-worker reference tables for a range of seeds
// (generated with -write-table2-ref). A seed without a file is checked
// against a one-worker run made outside the timed window instead.
//
//go:embed ref/*.txt
var table2Refs embed.FS

func table2RefName(seed int64) string { return fmt.Sprintf("table2-seed%d.txt", seed) }

// renderTable2 runs the whole grid on eng and renders the table.
func renderTable2(ctx context.Context, eng *engine.Engine, seed int64, onRow func(exper.RowResult)) ([]byte, []exper.RowResult, error) {
	results, err := exper.RunAllEngine(ctx, eng, 1, seed, onRow)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := exper.WriteTable(&buf, results); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), results, nil
}

func writeTable2Ref(dir string, seed int64) error {
	table, _, err := renderTable2(context.Background(), engine.New(engine.Options{Workers: 1}), seed, nil)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, table2RefName(seed)), table, 0o644)
}

// table2Reference returns the reference table for seed and where it came from.
func table2Reference(seed int64) ([]byte, string, error) {
	if ref, err := table2Refs.ReadFile("ref/" + table2RefName(seed)); err == nil {
		return ref, "file", nil
	}
	table, _, err := renderTable2(context.Background(), engine.New(engine.Options{Workers: 1}), seed, nil)
	return table, "one-worker run", err
}

// table2WarmScale sizes the per-pass warm-up grid that fills a fresh
// engine's solver pools before the timed pass (the set-up of this workload).
const table2WarmScale = 0.05

// table2WarmSeed draws the warm-up grid; the grid seeds of the timed pass
// are far from it, so no warm-up instance is one the pass evaluates.
const table2WarmSeed = 1 << 40

// warmCeiling returns, per engine worker, a strict instance at the grid's
// path-count cap: 4 stages replicated 5, 7, 8 and 9 times, m = 2520 rows.
// Solving them in set-up grows every worker's solver scratch past anything
// a grid instance needs (the largest grid nets have a few thousand cells,
// these 17,640), so the peak RSS does not depend on whether a seed happens
// to draw one of the grid's rare large nets.
func warmCeiling(workers int) ([]engine.Task, error) {
	rng := rand.New(rand.NewSource(table2WarmSeed))
	var tasks []engine.Task
	for i := 0; i < workers; i++ {
		inst, err := exper.RandomTimedInstance(rng, []int{5, 7, 8, 9}, 5, 15)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, engine.Task{Inst: inst, Model: model.Strict})
	}
	return tasks, nil
}

func runTable2(b *bench) error {
	ctx := context.Background()
	ref, src, err := table2Reference(b.seed)
	if err != nil {
		return err
	}
	fmt.Printf("table2-grid: reference table from %s\n", src)
	refLines := strings.Split(string(ref), "\n")

	ceiling, err := warmCeiling(b.workers)
	if err != nil {
		return err
	}
	rows := b.class("grid-row")
	insts := b.class("instance")
	var times passTimes
	var rowLat []latencies // per row, one sample per pass
	var allocs uint64
	var ops, perPass int64
	budget := b.budget
	if b.trace {
		budget /= 2 // the other half of the run is the traced replay
	}
	err = passLoop(budget, 3, func(pass int) (time.Duration, error) {
		times.start()
		c0 := cpuTime()
		eng := engine.New(engine.Options{Workers: b.workers})
		if _, err := exper.RunAllEngine(ctx, eng, table2WarmScale, table2WarmSeed, nil); err != nil {
			return 0, err
		}
		if _, err := eng.EvaluateBatch(ctx, ceiling); err != nil {
			return 0, err
		}
		setup := cpuTime() - c0

		settle()
		m0 := mallocs()
		c1 := cpuTime()
		start := time.Now()
		last, row := start, 0
		table, results, err := renderTable2(ctx, eng, b.seed, func(exper.RowResult) {
			now := time.Now()
			if row == len(rowLat) {
				rowLat = append(rowLat, nil)
			}
			rowLat[row].add(now.Sub(last))
			last = now
			row++
		})
		wall, work := time.Since(start), cpuTime()-c1
		allocs += mallocs() - m0
		if err != nil {
			return 0, err
		}
		times.add(setup, work, wall)
		perPass = 0
		for _, r := range results {
			perPass += int64(r.Total)
		}
		ops += perPass
		checkTable2(b, table, refLines, results, rows, insts)
		return wall, nil
	})
	if err != nil {
		return err
	}
	b.setCommon(times, perPass, allocs, ops)
	// The op of this workload's latency is a grid row, so p99 is the
	// heaviest of the 12 rows.
	b.setLatency([]latencies{opMedians(rowLat)})
	if b.trace {
		return replayTable2(b, refLines, median(times.walls))
	}
	return nil
}

// checkTable2 compares a rendered table with the reference row by row and
// accounts every instance of a differing row as failed.
func checkTable2(b *bench, table []byte, refLines []string, results []exper.RowResult, rows, insts *opClass) {
	lines := strings.Split(string(table), "\n")
	if len(lines) != len(refLines) {
		b.fail("table2-grid: table has %d lines, reference %d", len(lines), len(refLines))
	}
	for i, r := range results {
		rows.attempted++
		insts.attempted += int64(r.Total)
		// Line 0 is the header; row i renders on line i+1.
		if i+1 < len(lines) && i+1 < len(refLines) && lines[i+1] == refLines[i+1] {
			rows.succeeded++
			insts.succeeded += int64(r.Total)
			continue
		}
		rows.failed++
		insts.failed += int64(r.Total)
		b.fail("table2-grid: row %d differs from the reference", i)
	}
}

// solveScratch is one replay goroutine's reused solver state.
type solveScratch struct {
	builder tpn.Builder
	ws      cycles.Workspace
	sys     cycles.System
}

var scratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

// routesToHoward applies the exported auto-backend rule: Howard when at
// least AutoHowardTokenShareNum/Den of the system's edges carry tokens.
func routesToHoward(s *cycles.System) bool {
	tokenEdges := 0
	for _, tk := range s.Tokens {
		if tk > 0 {
			tokenEdges++
		}
	}
	return len(s.Tokens) > 0 &&
		cycles.AutoHowardTokenShareDen*tokenEdges >= cycles.AutoHowardTokenShareNum*len(s.Tokens)
}

// cycleCounts counts critical-cycle calls per backend across a replay.
type cycleCounts struct{ karp, howard atomic.Int64 }

// maxRatio runs the auto-routed cycle-ratio backend under a span.
func maxRatio(o *opTrace, parent int32, sc *solveScratch, s *cycles.System, cc *cycleCounts) (cycles.Result, error) {
	if routesToHoward(s) {
		cc.howard.Add(1)
		sp := o.begin("cycles.howard", parent)
		defer o.end(sp)
		return sc.ws.MaxRatioHoward(s)
	}
	cc.karp.Add(1)
	sp := o.begin("cycles.karp", parent)
	defer o.end(sp)
	return sc.ws.MaxRatio(s)
}

// tracedPeriod computes one instance's period the way core.Solver.Period
// does, through the exported layer functions, with one span per layer call.
func tracedPeriod(o *opTrace, root int32, sc *solveScratch, inst *model.Instance, cm model.CommModel, cc *cycleCounts) (core.Result, error) {
	if cm == model.Overlap {
		poly := o.begin("core.poly", root)
		defer o.end(poly)
		period := rat.Zero()
		for i := 0; i < inst.NumStages(); i++ {
			mi := int64(inst.Replication(i))
			for a := 0; a < inst.Replication(i); a++ {
				period = rat.Max(period, inst.CompTime(i, a).DivInt(mi))
			}
		}
		for i := 0; i < inst.NumStages()-1; i++ {
			pat := core.NewCommPattern(inst, i)
			for g := 0; g < pat.P; g++ {
				res, err := maxRatio(o, poly, sc, pat.PatternGraphInto(g, &sc.sys), cc)
				if err != nil {
					return core.Result{}, err
				}
				period = rat.Max(period, res.Ratio.DivInt(pat.LCM))
			}
		}
		return core.Result{Model: cm, Period: period, Mct: inst.Mct(cm), PathCount: inst.PathCount(), Method: core.MethodPoly}, nil
	}
	sp := o.begin("tpn.build", root)
	net, err := sc.builder.Build(inst, cm)
	o.end(sp)
	if err != nil {
		return core.Result{}, err
	}
	sp = o.begin("petri.system", root)
	sys := net.SystemInto(&sc.sys)
	o.end(sp)
	crit, err := maxRatio(o, root, sc, sys, cc)
	if err != nil {
		return core.Result{}, err
	}
	pc := inst.PathCount()
	return core.Result{Model: cm, Period: crit.Ratio.DivInt(pc), Mct: inst.Mct(cm), PathCount: pc, Method: core.MethodTPN}, nil
}

// replayGrid is one traced pass over the grid: the instances RunAllEngine
// generates (same row seeds and per-instance rng), aggregated into the same
// rows, on engine.ForEach with the same worker count.
func replayGrid(ctx context.Context, b *bench, eng *engine.Engine, cc *cycleCounts) ([]exper.RowResult, error) {
	var out []exper.RowResult
	for _, cm := range model.Models() {
		for i, row := range exper.Table2Rows(cm, 1, exper.DefaultMaxPathCount) {
			rowSeed := b.seed + int64(i)*1_000_003 + int64(cm)*7_000_009
			res := make([]core.Result, row.Runs)
			errs := make([]error, row.Runs)
			err := eng.ForEach(ctx, row.Runs, func(k int) {
				sc := scratchPool.Get().(*solveScratch)
				defer scratchPool.Put(sc)
				o := b.tracer.op()
				root := o.begin("op", -1)
				g := o.begin("exper.gen", root)
				js := rowSeed + int64(k)
				rng := rand.New(rand.NewSource(js))
				sp := row.Specs[int(js)%len(row.Specs)]
				inst, err := sp.Instance(rng)
				o.end(g)
				if err == nil {
					// The engine keys every task for its memo before solving.
					ks := o.begin("engine.key", root)
					engine.CanonicalKey(engine.Task{Inst: inst, Model: cm})
					o.end(ks)
					res[k], err = tracedPeriod(o, root, sc, inst, cm, cc)
				}
				errs[k] = err
				o.end(root)
				o.commit()
			})
			if err != nil {
				return nil, err
			}
			rr := exper.RowResult{Row: row}
			var gapSum float64
			for k := range res {
				if errs[k] != nil {
					return nil, fmt.Errorf("replay: %v row %d instance %d: %w", cm, i, k, errs[k])
				}
				rr.Total++
				if !res[k].HasCriticalResource() {
					gap := res[k].Gap().Float64() * 100
					rr.NoCritical++
					gapSum += gap
					if gap > rr.MaxGapPct {
						rr.MaxGapPct = gap
					}
				}
			}
			if rr.NoCritical > 0 {
				rr.MeanGapPct = gapSum / float64(rr.NoCritical)
			}
			out = append(out, rr)
		}
	}
	return out, nil
}

// table2Layers are the spans whose self time the grid's parts-add-up check
// sums: every layer an instance's evaluation passes through.
var table2Layers = []string{"exper.gen", "engine.key", "core.poly", "tpn.build", "petri.system", "cycles.karp", "cycles.howard"}

// replayTable2 runs the traced grid twice (the exact counts must repeat) and
// reports the compute-path layer metrics from the second run.
func replayTable2(b *bench, refLines []string, untracedWall float64) error {
	ctx := context.Background()
	var walls []float64
	var lt layerTimes
	var counts [2][2]int64
	var perPass int64
	for rep := 0; rep < 2; rep++ {
		eng := engine.New(engine.Options{Workers: b.workers})
		var cc cycleCounts
		from := b.tracer.mark()
		start := time.Now()
		results, err := replayGrid(ctx, b, eng, &cc)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		var buf bytes.Buffer
		if err := exper.WriteTable(&buf, results); err != nil {
			return err
		}
		perPass = 0
		for _, r := range results {
			perPass += int64(r.Total)
		}
		checkTable2(b, buf.Bytes(), refLines, results, b.class("replay-row"), b.class("replay-inst"))
		counts[rep] = [2]int64{cc.karp.Load(), cc.howard.Load()}
		lt = b.tracer.layers(from)

		if rep == 1 {
			perInst := func(name string) float64 {
				return float64(lt.self(name)) / float64(time.Microsecond) / float64(perPass)
			}
			b.set("exper.gen_us", perInst("exper.gen"), "us")
			b.set("engine.key_us", perInst("engine.key"), "us")
			b.set("core.poly_self_us", perInst("core.poly"), "us")
			b.set("tpn.build_us", perInst("tpn.build"), "us")
			b.set("petri.system_us", perInst("petri.system"), "us")
			b.set("cycles.karp_us", perInst("cycles.karp"), "us")
			b.set("cycles.howard_us", perInst("cycles.howard"), "us")
			b.set("cycles.karp_calls", float64(cc.karp.Load()), "count")
			b.set("cycles.howard_calls", float64(cc.howard.Load()), "count")
			capacity := float64(wall) * float64(b.workers)
			b.set("engine.parallel_eff", float64(lt.total("op"))/capacity, "ratio")
			var covered time.Duration
			for _, name := range table2Layers {
				covered += lt.self(name)
			}
			b.set("trace.coverage", float64(covered)/capacity, "ratio")
		}
	}
	if counts[0] != counts[1] {
		b.fail("table2-grid: cycle-ratio call counts drifted between replays: %v vs %v", counts[0], counts[1])
	}
	b.set("trace.overhead", median(walls)/untracedWall, "ratio")
	checkCoverage(b)
	return nil
}

// checkCoverage enforces the parts-add-up rule: the layers' self times must
// account for the traced wall within 10%.
func checkCoverage(b *bench) {
	c := b.metrics["trace.coverage"].Value
	if c < 0.9 || c > 1.1 {
		b.fail("%s: trace.coverage %.3f is outside 1 ± 0.1: the layers do not add up to the traced wall", b.workload, c)
	}
}
