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
// store on disk, per-root RootDone, one flush per 100ms of checkpointed
// search — the serving default shape). Every iteration runs the search once
// each way, in alternating order, and times both, so a slow phase of the
// host lands on both sides alike; the benchmark reports the mean of each
// side as off-ns/op and on-ns/op. The flush interval is wall time, and the
// checkpointed side runs about half of it, so the manager's interval is
// 200ms: 100ms would flush twice per 100ms of checkpointed search. The CI
// gate in scripts/benchjson.awk requires on/off <= 1.05: checkpointing
// must cost at most 5% of walker throughput, or the per-root bookkeeping
// has grown onto the hot path. The search is the search-jobs benchmark's walker-4x10 problem (seed 2,
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
	m, err := NewManager(b.TempDir(), 200*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	// One live record to write into, exactly as the serving layer registers
	// per detached job.
	const jobID = "bench0000bench00-1"
	m.Adopt(Record{JobID: jobID, Kind: "search", State: "running"})
	onRootDone := func(frontier int, done bnb.Finished) { m.RootDone(jobID, frontier, done) }
	eng := engine.New(engine.Options{CacheEntries: -1})
	search := func(on bool) time.Duration {
		opts := bnb.Options{Incumbent: warm.Mapping, IncumbentPeriod: warm.Period}
		if on {
			opts.OnRootDone = onRootDone
		}
		start := time.Now()
		res, err := bnb.Search(context.Background(), eng, pipe, plat, model.Overlap, opts)
		elapsed := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Proven {
			b.Fatal("benchmark search did not prove its answer")
		}
		return elapsed
	}
	var off, on time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := i%2 == 1 // odd iterations run the checkpointed search first
		t1 := search(first)
		t2 := search(!first)
		if first {
			on, off = on+t1, off+t2
		} else {
			off, on = off+t1, on+t2
		}
	}
	b.ReportMetric(float64(off.Nanoseconds())/float64(b.N), "off-ns/op")
	b.ReportMetric(float64(on.Nanoseconds())/float64(b.N), "on-ns/op")
}
