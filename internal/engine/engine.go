// Package engine is the concurrent batch-evaluation subsystem: a fixed
// worker pool with work-stealing over index ranges, context cancellation,
// and a memoization cache keyed by the canonical form of an instance.
//
// Every experiment of the paper — Table 2 (thousands of random instances),
// the mapping-search comparison (thousands of candidate mappings), the
// runtime sweep, the Monte-Carlo perturbation study — is a large batch of
// independent (instance, model) period evaluations. The engine turns those
// batches into deterministic parallel work:
//
//   - Determinism. Results are written to the output slice at the input
//     index, so the caller sees the exact serial order no matter how the
//     workers interleave; all arithmetic stays exact (rat.Rat), so a
//     parallel batch is bit-identical to the serial loop.
//
//   - Work stealing. The index range [0, n) is split into one contiguous
//     span per worker; a worker pops from the front of its own span and,
//     when empty, steals from the back of a victim's span. Both ends are a
//     single packed atomic, so the hot path is one CAS and uneven batches
//     (strict-model TPN evaluations vary by orders of magnitude) balance
//     without a central queue.
//
//   - Memoization. Mapping search revisits the same replica partition many
//     times (greedy enlargement, strict hill-climbing and annealing moves;
//     overlap walks memoize per column in package sched instead), and a
//     partition's period does not depend on which heuristic proposed it.
//     Evaluate canonicalizes the instance (model, replication vector, exact
//     operation times) into a key and computes each distinct instance once.
//     The cache is split into 64 internal/clock shards, chosen by a 64-bit
//     hash computed while the key is built; each shard is keyed by the full
//     canonical string, so a hash collision cannot return the wrong period.
//
//   - Solver reuse. Every evaluation borrows a core.Solver from a pool
//     owned by the engine: the unfolded net, the cycle-ratio system and the
//     cycle-iteration workspace are reused across tasks instead of being
//     rebuilt per call, which removes the allocation churn that dominated
//     strict-model batches.
package engine

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/rat"
)

// Options configures an Engine.
type Options struct {
	// Workers is the fixed worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries bounds the number of memoized results; 0 means
	// DefaultCacheEntries, negative disables memoization entirely. The
	// bound is exact — once reached, per-shard CLOCK eviction recycles the
	// coldest entries — so a resident process (cmd/serve) holds at most
	// CacheEntries results no matter how many distinct instances it sees.
	CacheEntries int
	// MaxRows caps the unfolded-TPN size of the engine's solvers; 0 means
	// the package default (tpn.MaxRows = 20000). Campaigns that can afford
	// the memory may raise it — solver storage is reused across tasks, so a
	// large net is paid for once per worker, not once per evaluation.
	MaxRows int
	// Backend selects the exact maximum-cycle-ratio engine of every solver
	// in the pool (cycles.BackendAuto, the zero value, routes by token-edge
	// share: cycle iteration on the compiled plan where token edges are
	// sparse, Howard where they are plentiful; "karp" names the plan
	// route). All backends are exact, so batch results are
	// bit-identical across backends — the choice only moves wall time.
	Backend cycles.Backend
}

// DefaultCacheEntries is the memo-cache bound used when Options leaves
// CacheEntries zero. At roughly a hundred bytes per entry the default
// stays within a few MiB while covering every candidate a mapping search
// typically revisits.
const DefaultCacheEntries = 1 << 15

// Engine evaluates batches of (instance, model) tasks on a fixed worker
// pool. It is safe for concurrent use; the memo cache and the solver pool
// are shared by all batches evaluated through the same Engine.
type Engine struct {
	workers int
	backend cycles.Backend
	memo    []*clock.Cache[string, core.Result] // shards by key hash; nil when memoization is disabled
	solvers sync.Pool                           // *core.Solver, one borrowed per in-flight evaluation
}

// New builds an Engine. The zero Options give a GOMAXPROCS-sized pool with
// the default memo cache.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	maxRows := opts.MaxRows
	backend := opts.Backend
	e := &Engine{workers: w, backend: backend}
	e.solvers.New = func() any {
		s := core.NewSolver()
		s.MaxRows = maxRows
		s.Backend = backend
		return s
	}
	switch {
	case opts.CacheEntries < 0:
		// memoization disabled
	case opts.CacheEntries == 0:
		e.memo = newMemo(DefaultCacheEntries)
	default:
		e.memo = newMemo(opts.CacheEntries)
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Backend returns the backend the engine's solvers were configured with:
// the exact engine of every evaluation, with or without a cutoff. It moves
// running time only, never a Result.
func (e *Engine) Backend() cycles.Backend { return e.backend }

// CacheStats returns the cumulative memo-cache hit and miss counts.
func (e *Engine) CacheStats() (hits, misses int64) {
	m := e.CacheMetrics()
	return m.Hits, m.Misses
}

// CacheMetrics is a point-in-time snapshot of the memo cache, the numbers
// the service layer exports on /metrics.
type CacheMetrics struct {
	// Hits and Misses count lookups since the engine was built.
	Hits, Misses int64
	// Evictions counts entries recycled by the CLOCK hand after the bound
	// filled; zero until the working set outgrows CacheEntries.
	Evictions int64
	// Entries is the current number of cached results; never exceeds
	// Capacity.
	Entries int64
	// Capacity is the configured bound (0 when memoization is disabled).
	Capacity int
}

// CacheMetrics sums the shards' snapshots. Each shard's insert total
// (Entries + Evictions) and lookup total (Hits + Misses) is monotone across
// its snapshots, and a sum of monotone terms is monotone, so no scraped
// total ever goes backwards.
func (e *Engine) CacheMetrics() CacheMetrics {
	var m CacheMetrics
	for _, sh := range e.memo {
		st := sh.Stats()
		m.Hits += st.Hits
		m.Misses += st.Misses
		m.Evictions += st.Evictions
		m.Entries += st.Entries
		m.Capacity += st.Capacity
	}
	return m
}

// CanonicalKey exposes the memo key of a task — the canonical serialization
// of everything its period depends on, plus the 64-bit hash computed along
// the way. The service layer coalesces concurrent identical requests on this
// key.
func CanonicalKey(t Task) (hash uint64, key string) { return canonicalKey(t) }

// InstanceKey is the model-independent half of the canonical key: the exact
// serialization of an instance's replication structure and operation times,
// plus its 64-bit FNV-1a hash. Two instances with equal InstanceKey strings
// are interchangeable in every evaluation under every model — it is the
// content address the instance store registers instances under.
func InstanceKey(inst *model.Instance) (hash uint64, key string) {
	k := keyHasher{h: fnvOffset64}
	k.b.Grow(16 * inst.NumStages() * inst.MaxReplication())
	writeInstanceKey(&k, inst)
	return k.h, k.b.String()
}

// Task is one period evaluation: an instance under a communication model.
type Task struct {
	Inst  *model.Instance
	Model model.CommModel
}

// Outcome is the result of one Task. Err carries per-task failures (for
// example tpn.ErrTooLarge on an instance the unfolded method cannot hold);
// batch-level failures such as cancellation are reported by EvaluateBatch
// itself.
type Outcome struct {
	Result core.Result
	Err    error
}

// Evaluate computes the period of a single task on a pooled solver,
// consulting and filling the memo cache. The returned Result is identical
// to core.Period on the same arguments.
func (e *Engine) Evaluate(t Task) (core.Result, error) {
	if e.memo == nil {
		return e.evaluateSolver(t)
	}
	h, k := canonicalKey(t)
	return e.EvaluateKeyed(h, k, t)
}

// EvaluateKeyed is Evaluate for callers that already hold the task's
// canonical key (see CanonicalKey) — the service computes it for request
// coalescing and must not pay the multi-KB serialization twice per request.
func (e *Engine) EvaluateKeyed(h uint64, k string, t Task) (core.Result, error) {
	if e.memo == nil {
		return e.evaluateSolver(t)
	}
	sh := e.shard(h)
	if res, ok := sh.Get(k); ok {
		return res, nil
	}
	res, err := e.evaluateSolver(t)
	if err != nil {
		return res, err // errors are deterministic but cheap to rediscover
	}
	sh.Put(k, res)
	return res, nil
}

// evaluateSolver runs the actual period computation on a pooled solver;
// cache hits never get here, so they skip the pool round-trip entirely.
func (e *Engine) evaluateSolver(t Task) (core.Result, error) {
	s := e.solvers.Get().(*core.Solver)
	defer e.solvers.Put(s)
	return s.Period(t.Inst, t.Model)
}

// EvaluateBelow is Evaluate with an exact cutoff (core.Solver.PeriodBelow):
// it returns Evaluate's Result when the period is below ref and
// core.ErrCutoff exactly when it is at least ref, whether the period comes
// from the memo or is computed. The Mct comparison runs before the memo key
// is built, since it rules out most candidates of a search for less than
// the key costs. Only exact Results are memoized.
func (e *Engine) EvaluateBelow(t Task, ref rat.Rat) (core.Result, error) {
	mct := t.Inst.Mct(t.Model)
	if !mct.Less(ref) {
		return core.Result{}, core.ErrCutoff
	}
	if e.memo == nil {
		return e.solveBelow(t, mct, ref)
	}
	h, k := canonicalKey(t)
	sh := e.shard(h)
	if res, ok := sh.Get(k); ok {
		if !res.Period.Less(ref) {
			return core.Result{}, core.ErrCutoff
		}
		return res, nil
	}
	res, err := e.solveBelow(t, mct, ref)
	if err != nil {
		return res, err
	}
	sh.Put(k, res)
	return res, nil
}

func (e *Engine) solveBelow(t Task, mct, ref rat.Rat) (core.Result, error) {
	s := e.solvers.Get().(*core.Solver)
	defer e.solvers.Put(s)
	return s.PeriodBelowMct(t.Inst, t.Model, mct, ref)
}

// EvaluateBatch evaluates tasks on the worker pool. out[i] always
// corresponds to tasks[i]; ordering and values are bit-identical to calling
// core.Period serially in index order. The only batch-level error is
// cancellation: when ctx is done the partial outcomes are discarded and
// ctx.Err() is returned.
func (e *Engine) EvaluateBatch(ctx context.Context, tasks []Task) ([]Outcome, error) {
	return e.batch(ctx, tasks, e.Evaluate)
}

// EvaluateBatchBelow is EvaluateBatch through EvaluateBelow: a task whose
// period is at least ref gets core.ErrCutoff as its Err. A search passes
// its running best, which such a task cannot strictly improve.
func (e *Engine) EvaluateBatchBelow(ctx context.Context, tasks []Task, ref rat.Rat) ([]Outcome, error) {
	return e.batch(ctx, tasks, func(t Task) (core.Result, error) { return e.EvaluateBelow(t, ref) })
}

func (e *Engine) batch(ctx context.Context, tasks []Task, eval func(Task) (core.Result, error)) ([]Outcome, error) {
	out := make([]Outcome, len(tasks))
	err := e.ForEach(ctx, len(tasks), func(i int) {
		res, err := eval(tasks[i])
		out[i] = Outcome{Result: res, Err: err}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) on the worker pool with work
// stealing. fn must be safe for concurrent invocation on distinct indices;
// every index is executed at most once, and exactly once when ForEach
// returns nil. On cancellation in-flight calls finish, remaining indices
// are skipped, and ctx.Err() is returned.
func (e *Engine) ForEach(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	if n > math.MaxInt32 {
		// The packed-span representation holds 32-bit bounds; batches this
		// large are already balanced by a shared counter alone.
		return e.forEachCounter(ctx, n, fn, workers)
	}
	spans := newSpans(n, workers)
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(self int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				idx, ok := spans[self].popFront()
				if !ok {
					idx, ok = steal(spans, self)
				}
				if !ok {
					return
				}
				fn(idx)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// forEachCounter dispatches indices from one shared atomic counter — the
// fallback for batches too large for packed 32-bit spans.
func (e *Engine) forEachCounter(ctx context.Context, n int, fn func(i int), workers int) error {
	var next atomic.Int64
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// span is a contiguous index range [lo, hi) with both bounds packed into a
// single atomic word: the owner pops lo forward, thieves pop hi backward,
// and one CAS decides every pop race.
type span struct {
	bounds atomic.Int64
	// pad the spans apart so owner and thief CAS loops on neighboring
	// workers do not false-share a cache line.
	_ [7]int64
}

func pack(lo, hi int32) int64       { return int64(hi)<<32 | int64(uint32(lo)) }
func unpack(v int64) (lo, hi int32) { return int32(uint32(v)), int32(v >> 32) }

// newSpans splits [0, n) into one near-even contiguous span per worker.
func newSpans(n, workers int) []*span {
	spans := make([]*span, workers)
	chunk := n / workers
	rem := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		s := &span{}
		s.bounds.Store(pack(int32(lo), int32(hi)))
		spans[w] = s
		lo = hi
	}
	return spans
}

// popFront claims the owner-side index of the span.
func (s *span) popFront() (int, bool) {
	for {
		v := s.bounds.Load()
		lo, hi := unpack(v)
		if lo >= hi {
			return 0, false
		}
		if s.bounds.CompareAndSwap(v, pack(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// popBack claims the thief-side index of the span.
func (s *span) popBack() (int, bool) {
	for {
		v := s.bounds.Load()
		lo, hi := unpack(v)
		if lo >= hi {
			return 0, false
		}
		if s.bounds.CompareAndSwap(v, pack(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// steal scans the other workers' spans (starting after self, wrapping) and
// claims an index from the back of the first non-empty victim.
func steal(spans []*span, self int) (int, bool) {
	for off := 1; off < len(spans); off++ {
		victim := spans[(self+off)%len(spans)]
		if idx, ok := victim.popBack(); ok {
			return idx, true
		}
	}
	return 0, false
}

// fnv64 constants (FNV-1a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyHasher accumulates the canonical key string and its 64-bit FNV-1a hash
// in one pass, so picking the memo shard takes no second pass over a
// multi-KB key.
type keyHasher struct {
	b   strings.Builder
	h   uint64
	tmp [48]byte // scratch for formatting one rational
}

func (k *keyHasher) writeString(s string) {
	k.b.WriteString(s)
	for i := 0; i < len(s); i++ {
		k.h = (k.h ^ uint64(s[i])) * fnvPrime64
	}
}

// writeRat appends r in its String form without allocating a string.
func (k *keyHasher) writeRat(r rat.Rat) {
	s := r.AppendTo(k.tmp[:0])
	k.b.Write(s)
	for _, c := range s {
		k.h = (k.h ^ uint64(c)) * fnvPrime64
	}
}

func (k *keyHasher) writeByte(c byte) {
	k.b.WriteByte(c)
	k.h = (k.h ^ uint64(c)) * fnvPrime64
}

// canonicalKey serializes everything the period depends on — the model, the
// replication vector and the exact operation times — into a canonical
// string plus its hash. Processor ids and display names are deliberately
// excluded: two mappings that induce the same timed structure share one
// cache entry. The memo is keyed by the full string, so a hash collision
// never returns a wrong period.
func canonicalKey(t Task) (uint64, string) {
	inst := t.Inst
	k := keyHasher{h: fnvOffset64}
	k.b.Grow(16*inst.NumStages()*inst.MaxReplication() + 2)
	k.writeString(strconv.Itoa(int(t.Model)))
	writeInstanceKey(&k, inst)
	return k.h, k.b.String()
}

// writeInstanceKey appends the instance-content part of the canonical key:
// the replication vector (implied by the separators) and the exact operation
// times, in a fixed order.
func writeInstanceKey(k *keyHasher, inst *model.Instance) {
	n := inst.NumStages()
	for i := 0; i < n; i++ {
		k.writeByte('|')
		for a := 0; a < inst.Replication(i); a++ {
			k.writeRat(inst.CompTime(i, a))
			k.writeByte(',')
		}
	}
	for i := 0; i < n-1; i++ {
		k.writeByte('/')
		for a := 0; a < inst.Replication(i); a++ {
			for bb := 0; bb < inst.Replication(i+1); bb++ {
				k.writeRat(inst.CommTime(i, a, bb))
				k.writeByte(',')
			}
		}
	}
}

// memoShardCount is the number of independent cache shards. 64 shards keep
// mutex pressure negligible for pools of up to dozens of workers while the
// per-shard caches stay small.
const memoShardCount = 64

// newMemo splits capacity exactly across the shards (shard i gets cap/64,
// the first cap%64 shards one more), so the total entry count can never
// exceed it. Which entries survive depends on worker interleaving, but that
// only moves the hit rate: a hit returns the same Result a fresh
// computation would, so cache state never affects what a batch returns.
func newMemo(capacity int) []*clock.Cache[string, core.Result] {
	shards := make([]*clock.Cache[string, core.Result], memoShardCount)
	base, extra := capacity/memoShardCount, capacity%memoShardCount
	for i := range shards {
		quota := base
		if i < extra {
			quota++
		}
		shards[i] = clock.New[string, core.Result](quota)
	}
	return shards
}

// shard picks the memo shard of a key by its hash.
func (e *Engine) shard(h uint64) *clock.Cache[string, core.Result] {
	return e.memo[h%memoShardCount]
}
