package checkpoint

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bnb"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/sched"
)

// BenchmarkCheckpointOverhead measures what checkpointing costs the walker:
// the same deterministic bnb search with the persister off vs on (a real
// store on disk, per-root RootDone, a 100ms flush interval — the serving
// default shape). The CI gate in scripts/benchjson.awk requires on/off
// <= 1.05 in ns/op: checkpointing must cost at most 5% of walker
// throughput, or the per-root bookkeeping has grown onto the hot path.
// The search is the search-jobs benchmark's walker-4x10 problem (seed 2,
// 4 stages on 10 heterogeneous processors, drawn as cmd/mapsearch draws
// it), warm-started from greedy as a search job is: several milliseconds
// per op, where the uniform search it replaced took under one.
func BenchmarkCheckpointOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pipe := pipeline.Random(rng, 4, 50, 500)
	plat := platform.Random(rng, 10, 5, 25, 20, 200)
	warm, err := sched.GreedyEngine(context.Background(), engine.New(engine.Options{}), pipe, plat, model.Overlap)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, onRootDone func(int, bnb.Finished)) {
		eng := engine.New(engine.Options{CacheEntries: -1})
		var last bnb.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := bnb.Search(context.Background(), eng, pipe, plat, model.Overlap,
				bnb.Options{OnRootDone: onRootDone, Incumbent: warm.Mapping, IncumbentPeriod: warm.Period})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.StopTimer()
		if !last.Proven {
			b.Fatal("benchmark search did not prove its answer")
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, nil)
	})
	b.Run("on", func(b *testing.B) {
		m, err := NewManager(b.TempDir(), 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		// One live record to write into, exactly as the serving layer
		// registers per detached job.
		const jobID = "bench0000bench00-1"
		m.Adopt(Record{JobID: jobID, Kind: "search", State: "running"})
		run(b, func(frontier int, done bnb.Finished) {
			m.RootDone(jobID, frontier, done)
		})
	})
}
