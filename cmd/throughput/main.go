// Command throughput computes the steady-state period, throughput, resource
// cycle-times and critical resources of a replicated-workflow instance.
//
// Usage:
//
//	throughput -example A|B|C [-model overlap|strict|both]
//	throughput -instance file.json [-model overlap|strict|both]
//
// The JSON instance format is:
//
//	{
//	  "pipeline": {"stages": [{"work": 200}, ...], "fileSizes": [1000, ...]},
//	  "platform": {"speeds": [...], "bandwidths": [[...], ...]},
//	  "mapping":  {"replicas": [[0], [1,2], ...]}
//	}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/examplesdata"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

type instanceFile struct {
	Pipeline pipeline.Pipeline `json:"pipeline"`
	Platform platform.Platform `json:"platform"`
	Mapping  mapping.Mapping   `json:"mapping"`
}

func main() {
	example := flag.String("example", "", "built-in example: A, B or C")
	path := flag.String("instance", "", "JSON instance file")
	modelName := flag.String("model", "both", "communication model: overlap, strict or both")
	analyze := flag.Bool("analyze", false, "full report: critical cycle, utilization, slack, stream periods (unfolds the TPN)")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	flag.Parse()

	inst, err := loadInstance(*example, *path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "throughput:", err)
		os.Exit(1)
	}
	var models []model.CommModel
	switch *modelName {
	case "overlap":
		models = []model.CommModel{model.Overlap}
	case "strict":
		models = []model.CommModel{model.Strict}
	case "both":
		models = model.Models()
	default:
		fmt.Fprintf(os.Stderr, "throughput: unknown model %q\n", *modelName)
		os.Exit(1)
	}

	fmt.Printf("stages: %d   paths (lcm of replication): %d   max duplication: %d\n",
		inst.NumStages(), inst.PathCount(), inst.MaxReplication())

	// Both models are independent period computations: evaluate them as one
	// engine batch (the analyze path needs the full report and stays serial).
	var outs []engine.Outcome
	if !*analyze {
		eng := engine.New(engine.Options{Workers: *workers})
		tasks := make([]engine.Task, len(models))
		for k, cm := range models {
			tasks[k] = engine.Task{Inst: inst, Model: cm}
		}
		var err error
		outs, err = eng.EvaluateBatch(context.Background(), tasks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
	}

	for k, cm := range models {
		if *analyze {
			rep, err := core.Analyze(inst, cm)
			if err != nil {
				fmt.Fprintf(os.Stderr, "throughput: %v model: %v\n", cm, err)
				os.Exit(1)
			}
			fmt.Printf("\n=== %v model — full analysis ===\n", cm)
			if err := rep.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "throughput:", err)
				os.Exit(1)
			}
			continue
		}
		res, err := outs[k].Result, outs[k].Err
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: %v model: %v\n", cm, err)
			os.Exit(1)
		}
		fmt.Printf("\n=== %v model (method %s) ===\n", cm, res.Method)
		fmt.Printf("period      P   = %v (= %.4f)\n", res.Period, res.Period.Float64())
		fmt.Printf("throughput  1/P = %v (= %.6f data sets / time unit)\n", res.Throughput(), res.Throughput().Float64())
		fmt.Printf("bound       Mct = %v (= %.4f)\n", res.Mct, res.Mct.Float64())
		if res.HasCriticalResource() {
			fmt.Println("critical resource: YES (period = Mct)")
		} else {
			fmt.Printf("critical resource: NO — all resources idle each period (gap %.2f%%)\n",
				res.Gap().Float64()*100)
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "proc\tstage\tCin\tCcomp\tCout\tCexec")
		for _, r := range inst.Resources() {
			marker := ""
			if r.Cexec(cm).Equal(res.Mct) {
				marker = "  <- Mct"
			}
			fmt.Fprintf(tw, "%s\tS%d\t%.3f\t%.3f\t%.3f\t%.3f%s\n",
				r.Name, r.Stage, r.Cin.Float64(), r.Ccomp.Float64(), r.Cout.Float64(),
				r.Cexec(cm).Float64(), marker)
		}
		tw.Flush()
	}
}

func loadInstance(example, path string) (*model.Instance, error) {
	switch {
	case example != "" && path != "":
		return nil, fmt.Errorf("use either -example or -instance, not both")
	case example != "":
		switch example {
		case "A", "a":
			return examplesdata.ExampleA(), nil
		case "B", "b":
			return examplesdata.ExampleB(), nil
		case "C", "c":
			return examplesdata.ExampleC(), nil
		default:
			return nil, fmt.Errorf("unknown example %q (want A, B or C)", example)
		}
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f instanceFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return model.FromMapped(&f.Pipeline, &f.Platform, &f.Mapping)
	default:
		return nil, fmt.Errorf("need -example or -instance (see -h)")
	}
}
