package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
)

// randomInstance draws an instance with the given replication counts and
// uniform integer operation times in [lo, hi].
func randomInstance(t testing.TB, rng *rand.Rand, reps []int, lo, hi int64) *model.Instance {
	t.Helper()
	draw := func() rat.Rat { return rat.FromInt(lo + rng.Int63n(hi-lo+1)) }
	comp := make([][]rat.Rat, len(reps))
	for i, r := range reps {
		comp[i] = make([]rat.Rat, r)
		for a := range comp[i] {
			comp[i][a] = draw()
		}
	}
	comm := make([][][]rat.Rat, len(reps)-1)
	for i := range comm {
		comm[i] = make([][]rat.Rat, reps[i])
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, reps[i+1])
			for b := range comm[i][a] {
				comm[i][a][b] = draw()
			}
		}
	}
	inst, err := model.FromTimes(comp, comm)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func randomTasks(t testing.TB, seed int64, count int) []Task {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shapes := [][]int{{1, 2, 3}, {2, 3}, {3, 4}, {2, 2, 2}, {1, 4, 2}}
	tasks := make([]Task, count)
	for k := range tasks {
		cm := model.Overlap
		if k%2 == 1 {
			cm = model.Strict
		}
		tasks[k] = Task{
			Inst:  randomInstance(t, rng, shapes[k%len(shapes)], 5, 15),
			Model: cm,
		}
	}
	return tasks
}

// serialOutcomes is the reference path the engine must match bit for bit.
func serialOutcomes(tasks []Task) []Outcome {
	out := make([]Outcome, len(tasks))
	for i, tk := range tasks {
		res, err := core.Period(tk.Inst, tk.Model)
		out[i] = Outcome{Result: res, Err: err}
	}
	return out
}

func TestEvaluateBatchMatchesSerial(t *testing.T) {
	tasks := randomTasks(t, 42, 60)
	want := serialOutcomes(tasks)
	for _, workers := range []int{1, 2, 4, 7} {
		eng := New(Options{Workers: workers})
		got, err := eng.EvaluateBatch(context.Background(), tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d task %d: err %v vs serial %v", workers, i, got[i].Err, want[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result, want[i].Result) {
				t.Fatalf("workers=%d task %d: result %+v differs from serial %+v",
					workers, i, got[i].Result, want[i].Result)
			}
		}
	}
}

// TestEvaluateBatchBelowMatchesSerial: under a cutoff at the median period,
// every task whose serial period is at least it must come back as
// core.ErrCutoff and every other one with the serial Result, bit for bit,
// whether the engine memoizes or not, at any worker count, and on a second
// pass served from the memo. A cut is never memoized: a cutoff at zero cuts
// every task on Mct alone, before the memo is consulted.
func TestEvaluateBatchBelowMatchesSerial(t *testing.T) {
	tasks := randomTasks(t, 43, 60)
	want := serialOutcomes(tasks)
	periods := make([]rat.Rat, len(want))
	for i, o := range want {
		if o.Err != nil {
			t.Fatalf("task %d: %v", i, o.Err)
		}
		periods[i] = o.Result.Period
	}
	slices.SortFunc(periods, rat.Rat.Cmp)
	ref := periods[len(periods)/2]
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, CacheEntries: -1}} {
		eng := New(opts)
		for pass := 0; pass < 2; pass++ {
			got, err := eng.EvaluateBatchBelow(context.Background(), tasks, ref)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				cut := !want[i].Result.Period.Less(ref)
				if cut != errors.Is(got[i].Err, core.ErrCutoff) || (!cut && got[i].Err != nil) {
					t.Fatalf("%+v pass %d task %d: err %v for period %v at cutoff %v", opts, pass, i, got[i].Err, want[i].Result.Period, ref)
				}
				if !cut && !reflect.DeepEqual(got[i].Result, want[i].Result) {
					t.Fatalf("%+v pass %d task %d: result %+v differs from serial %+v", opts, pass, i, got[i].Result, want[i].Result)
				}
			}
		}
	}
	eng := New(Options{Workers: 2})
	got, err := eng.EvaluateBatchBelow(context.Background(), tasks, rat.Zero())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range got {
		if !errors.Is(o.Err, core.ErrCutoff) {
			t.Fatalf("task %d at cutoff 0: err %v", i, o.Err)
		}
	}
	if m := eng.CacheMetrics(); m.Hits+m.Misses+m.Entries != 0 {
		t.Fatalf("cuts by Mct touched the memo: %+v", m)
	}
}

func TestEvaluateBatchDeterministicAcrossRuns(t *testing.T) {
	tasks := randomTasks(t, 7, 40)
	eng := New(Options{Workers: 4})
	first, err := eng.EvaluateBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		again, err := eng.EvaluateBatch(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("round %d differs from first run", round)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 97, 256} {
			eng := New(Options{Workers: workers})
			counts := make([]int32, n)
			if err := eng.ForEach(context.Background(), n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachStealsUnevenWork(t *testing.T) {
	// Pile all the heavy work into the first worker's span: without
	// stealing the batch would serialize behind worker 0.
	eng := New(Options{Workers: 4})
	var ran int32
	err := eng.ForEach(context.Background(), 64, func(i int) {
		if i < 16 {
			// Heavy indices: spin a little to let the other workers
			// drain their spans and start stealing.
			for j := 0; j < 1000; j++ {
				_ = j
			}
		}
		atomic.AddInt32(&ran, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 64 {
		t.Fatalf("ran %d of 64", ran)
	}
}

func TestSpanPopBothEnds(t *testing.T) {
	s := &span{}
	s.bounds.Store(pack(0, 4))
	if idx, ok := s.popFront(); !ok || idx != 0 {
		t.Fatalf("popFront = %d, %v", idx, ok)
	}
	if idx, ok := s.popBack(); !ok || idx != 3 {
		t.Fatalf("popBack = %d, %v", idx, ok)
	}
	if idx, ok := s.popFront(); !ok || idx != 1 {
		t.Fatalf("popFront = %d, %v", idx, ok)
	}
	if idx, ok := s.popBack(); !ok || idx != 2 {
		t.Fatalf("popBack = %d, %v", idx, ok)
	}
	if _, ok := s.popFront(); ok {
		t.Fatal("popFront on empty span succeeded")
	}
	if _, ok := s.popBack(); ok {
		t.Fatal("popBack on empty span succeeded")
	}
}

func TestEvaluateBatchCancellation(t *testing.T) {
	tasks := randomTasks(t, 3, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: no task should matter
	eng := New(Options{Workers: 4})
	out, err := eng.EvaluateBatch(ctx, tasks)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("canceled batch must not return partial outcomes")
	}
}

func TestForEachCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(Options{Workers: 2})
	var ran int32
	err := eng.ForEach(ctx, 1000, func(i int) {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 1000 {
		t.Fatalf("cancellation did not stop the batch (ran %d)", n)
	}
}

func TestMemoCacheHitsAndIdenticalResults(t *testing.T) {
	tasks := randomTasks(t, 11, 10)
	eng := New(Options{Workers: 2})
	first, err := eng.EvaluateBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := eng.CacheStats()
	if misses0 == 0 {
		t.Fatal("first batch should miss")
	}
	second, err := eng.EvaluateBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	hits1, _ := eng.CacheStats()
	if hits1-hits0 != int64(len(tasks)) {
		t.Fatalf("second batch hits = %d, want %d", hits1-hits0, len(tasks))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached results differ from computed results")
	}
}

func TestCacheDisabled(t *testing.T) {
	tasks := randomTasks(t, 13, 4)
	eng := New(Options{Workers: 1, CacheEntries: -1})
	if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	hits, misses := eng.CacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d", hits, misses)
	}
}

func TestCacheEntriesBoundHolds(t *testing.T) {
	tasks := randomTasks(t, 17, 12)
	eng := New(Options{Workers: 1, CacheEntries: 3})
	if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheMetrics().Entries; got > 3 {
		t.Fatalf("cache holds %d entries, cap 3", got)
	}
	// Results must still be correct beyond the cap.
	out, err := eng.EvaluateBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := serialOutcomes(tasks)
	for i := range want {
		if !reflect.DeepEqual(out[i].Result, want[i].Result) {
			t.Fatalf("task %d wrong beyond cache cap", i)
		}
	}
	m := eng.CacheMetrics()
	if m.Capacity != 3 || m.Entries > 3 {
		t.Fatalf("metrics report entries=%d capacity=%d, want <=3/3", m.Entries, m.Capacity)
	}
}

func TestMemoCacheClockEviction(t *testing.T) {
	// Drive one shard directly: fill its quota, then insert more and watch
	// the CLOCK hand recycle slots while the bound holds exactly.
	eng := New(Options{Workers: 1, CacheEntries: memoShardCount * 2}) // quota 2 per shard
	shard := uint64(5)
	key := func(i int) (uint64, string) {
		// Same shard (h % 64 == 5), distinct hashes.
		return shard + uint64(i)*memoShardCount, "k" + strconv.Itoa(i)
	}
	for i := 0; i < 10; i++ {
		h, k := key(i)
		eng.shard(h).Put(k, core.Result{PathCount: int64(i)})
	}
	if got := eng.memo[shard].Stats().Entries; got != 2 {
		t.Fatalf("shard holds %d entries, quota 2", got)
	}
	if ev := eng.CacheMetrics().Evictions; ev != 8 {
		t.Fatalf("evictions = %d, want 8", ev)
	}
	// The last insert is resident and correct.
	h, k := key(9)
	if res, ok := eng.shard(h).Get(k); !ok || res.PathCount != 9 {
		t.Fatalf("latest entry: got %+v ok=%v", res, ok)
	}
	// No key answers another key's result, and exactly the quota resides.
	resident := 0
	for i := 0; i < 10; i++ {
		h, k := key(i)
		res, ok := eng.shard(h).Get(k)
		if !ok {
			continue
		}
		resident++
		if res.PathCount != int64(i) {
			t.Fatalf("key %d answered the result of key %d", i, res.PathCount)
		}
	}
	if resident != 2 {
		t.Fatalf("%d of 10 keys resident, quota 2", resident)
	}
}

func TestMemoCacheClockSecondChance(t *testing.T) {
	// Second chance, step by step on one quota-2 shard. Inserts are cold, so
	// after A and B the first over-capacity put (C) evicts A at the hand and
	// leaves the hand on B. Reading B sets its bit; the next put (D) clears
	// it and moves on to C, which nobody read since its insert: C is the
	// victim and the read B survives.
	eng := New(Options{Workers: 1, CacheEntries: memoShardCount * 2})
	c := eng.memo[0]
	c.Put("A", core.Result{PathCount: 100})
	c.Put("B", core.Result{PathCount: 101})
	c.Put("C", core.Result{PathCount: 102})
	if _, ok := c.Get("A"); ok {
		t.Fatal("A should be the first CLOCK victim")
	}
	if _, ok := c.Get("B"); !ok {
		t.Fatal("B must survive the first eviction")
	}
	c.Put("D", core.Result{PathCount: 103})
	if _, ok := c.Get("C"); ok {
		t.Fatal("never-read entry C survived while read entry B was a candidate")
	}
	if res, ok := c.Get("B"); !ok || res.PathCount != 101 {
		t.Fatalf("read entry B evicted before never-read C: got %+v ok=%v", res, ok)
	}
	if _, ok := c.Get("D"); !ok {
		t.Fatal("D must be resident after its insert")
	}
}

func TestCanonicalKeyIgnoresProcessorIDs(t *testing.T) {
	// The same timed structure must share a cache entry no matter which
	// processors realize it; distinct times must not.
	rng := rand.New(rand.NewSource(5))
	a := randomInstance(t, rng, []int{2, 3}, 5, 15)
	b := randomInstance(t, rng, []int{2, 3}, 5, 15)
	ha, ka := canonicalKey(Task{Inst: a, Model: model.Overlap})
	haAgain, kaAgain := canonicalKey(Task{Inst: a, Model: model.Overlap})
	if ka != kaAgain || ha != haAgain {
		t.Fatal("canonical key not stable")
	}
	if hs, ks := canonicalKey(Task{Inst: a, Model: model.Strict}); ka == ks || ha == hs {
		t.Fatal("key ignores the communication model")
	}
	if hb, kb := canonicalKey(Task{Inst: b, Model: model.Overlap}); ka == kb || ha == hb {
		t.Fatal("distinct instances collided (times differ with probability ~1)")
	}
}

func TestEngineMaxRowsOption(t *testing.T) {
	// The row cap travels from Options into every pooled solver: a strict
	// evaluation whose unfolded net exceeds it must fail per-task with
	// tpn.ErrTooLarge, and a roomier engine must succeed on the same task.
	rng := rand.New(rand.NewSource(3))
	task := Task{Inst: randomInstance(t, rng, []int{2, 3}, 5, 15), Model: model.Strict} // m = 6
	capped := New(Options{Workers: 1, MaxRows: 5})
	_, err := capped.Evaluate(task)
	var tooLarge tpn.ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("got err %v, want ErrTooLarge", err)
	}
	if tooLarge.Rows != 6 || tooLarge.Cap != 5 {
		t.Fatalf("ErrTooLarge = %+v, want Rows 6 Cap 5", tooLarge)
	}
	roomy := New(Options{Workers: 1, MaxRows: 6})
	got, err := roomy.Evaluate(task)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Period(task.Inst, task.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Period.Equal(want.Period) {
		t.Fatalf("capped-engine period %v != default %v", got.Period, want.Period)
	}
}

func TestInstanceKeyIsModelFreeSuffixOfCanonicalKey(t *testing.T) {
	// The store content-addresses instances by InstanceKey; the task key of
	// every model must be the model prefix plus exactly that content string,
	// so the two serializations cannot drift apart.
	rng := rand.New(rand.NewSource(9))
	inst := randomInstance(t, rng, []int{2, 3, 2}, 5, 15)
	_, content := InstanceKey(inst)
	if content == "" {
		t.Fatal("empty instance key")
	}
	for _, cm := range model.Models() {
		_, task := canonicalKey(Task{Inst: inst, Model: cm})
		if want := strconv.Itoa(int(cm)) + content; task != want {
			t.Fatalf("model %s: task key is not model prefix + instance content", cm)
		}
	}
	h1, k1 := InstanceKey(inst)
	h2, k2 := InstanceKey(inst)
	if h1 != h2 || k1 != k2 {
		t.Fatal("InstanceKey not stable")
	}
	other := randomInstance(t, rng, []int{2, 3, 2}, 5, 15)
	if _, k3 := InstanceKey(other); k3 == k1 {
		t.Fatal("distinct instances collided (times differ with probability ~1)")
	}
}

// TestCacheMetricsConsistentUnderConcurrentScrapes is the /metrics
// consistency regression test (run under -race in CI): while batches churn a
// deliberately tiny cache through constant eviction, every scrape must see
// monotone lookup (hits+misses) and insert (entries+evictions) totals, and
// an entry count within the bound. Before evictions moved under the shard
// locks, a scrape could observe an eviction without its insert and the
// derived totals went backwards between scrapes.
func TestCacheMetricsConsistentUnderConcurrentScrapes(t *testing.T) {
	eng := New(Options{Workers: 2, CacheEntries: 8})
	tasks := randomTasks(t, 23, 96)
	quit := make(chan struct{})
	done := make(chan struct{})
	var scrapeErr atomic.Value
	go func() {
		defer close(done)
		var lastLookups, lastInserts int64
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			m := eng.CacheMetrics()
			lookups := m.Hits + m.Misses
			inserts := m.Entries + m.Evictions
			if lookups < lastLookups {
				scrapeErr.Store(fmt.Sprintf("scrape %d: hits+misses went backwards (%d -> %d)", i, lastLookups, lookups))
				return
			}
			if inserts < lastInserts {
				scrapeErr.Store(fmt.Sprintf("scrape %d: entries+evictions went backwards (%d -> %d)", i, lastInserts, inserts))
				return
			}
			if m.Entries > int64(m.Capacity) {
				scrapeErr.Store(fmt.Sprintf("scrape %d: %d entries over capacity %d", i, m.Entries, m.Capacity))
				return
			}
			lastLookups, lastInserts = lookups, inserts
		}
	}()
	for round := 0; round < 6; round++ {
		if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
			t.Fatal(err)
		}
	}
	close(quit)
	<-done
	if msg := scrapeErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if m := eng.CacheMetrics(); m.Evictions == 0 {
		t.Fatalf("workload of %d tasks over an 8-entry cache produced no evictions", len(tasks))
	}
}

func TestMemoCacheCollisionSafety(t *testing.T) {
	// Two distinct canonical strings forced onto the same hash must coexist:
	// the key, not the hash, decides a hit.
	eng := New(Options{Workers: 1})
	const h = uint64(42)
	resA := core.Result{PathCount: 1}
	resB := core.Result{PathCount: 2}
	eng.shard(h).Put("instance-A", resA)
	eng.shard(h).Put("instance-B", resB)
	if got, ok := eng.shard(h).Get("instance-A"); !ok || got.PathCount != 1 {
		t.Fatalf("entry A: got %+v ok=%v", got, ok)
	}
	if got, ok := eng.shard(h).Get("instance-B"); !ok || got.PathCount != 2 {
		t.Fatalf("entry B: got %+v ok=%v", got, ok)
	}
	if _, ok := eng.shard(h).Get("instance-C"); ok {
		t.Fatal("phantom hit on colliding hash with unknown key")
	}
}
