package bnb

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// wireExecutor drives a LocalExecutor through a JSON round trip of both the
// root and the result — exactly what the cluster coordinator's remote
// executor does over HTTP — so any serialization loss would surface as a
// bit-identity failure in the tests below.
type wireExecutor struct {
	local *LocalExecutor
	ran   atomic.Int64
}

func (e *wireExecutor) RunRoot(ctx context.Context, root Root, warm string) (SubResult, error) {
	e.ran.Add(1)
	b, err := json.Marshal(root)
	if err != nil {
		return SubResult{}, err
	}
	var decoded Root
	if err := json.Unmarshal(b, &decoded); err != nil {
		return SubResult{}, err
	}
	res, err := e.local.RunRoot(ctx, decoded, warm)
	if err != nil {
		return SubResult{}, err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return SubResult{}, err
	}
	var out SubResult
	if err := json.Unmarshal(rb, &out); err != nil {
		return SubResult{}, err
	}
	return out, nil
}

// TestExecutorWireRoundTripBitIdentical pins the refactor's core claim: a
// Search whose roots travel through JSON to a LocalExecutor and whose
// results travel back the same way returns the identical mapping, period,
// proven flag and Stats as the default in-process Search.
func TestExecutorWireRoundTripBitIdentical(t *testing.T) {
	for _, f := range generatedFamilies(t, []int64{11, 12}) {
		t.Run(f.name, func(t *testing.T) {
			eng := engine.New(engine.Options{Workers: 4})
			opts := Options{FrontierTarget: 16}
			ref, refErr := Search(context.Background(), eng, f.pipe, f.plat, f.cm, opts)

			local, err := NewLocalExecutor(eng, f.pipe, f.plat, f.cm, opts)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Executor = &wireExecutor{local: local}
			o.Workers = 3
			res, resErr := Search(context.Background(), nil, f.pipe, f.plat, f.cm, o)
			if (refErr == nil) != (resErr == nil) {
				t.Fatalf("err mismatch: local %v, wire %v", refErr, resErr)
			}
			if refErr != nil {
				return
			}
			if res.Mapping.String() != ref.Mapping.String() ||
				!res.Period.Equal(ref.Period) ||
				res.Proven != ref.Proven ||
				res.Stats != ref.Stats {
				t.Fatalf("wire executor diverged:\n got %v %v proven=%v %+v\nwant %v %v proven=%v %+v",
					res.Mapping, res.Period, res.Proven, res.Stats,
					ref.Mapping, ref.Period, ref.Proven, ref.Stats)
			}
		})
	}
}

// TestReplaySkipsRootsAndStaysBitIdentical simulates a checkpoint resume:
// the results of a first run are captured per root through OnRootDone, then
// a second run replays half of them — only the other half may execute, and
// the merged result must be identical.
func TestReplaySkipsRootsAndStaysBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pipe := pipeline.Random(rng, 3, 50, 500)
	plat := platform.Random(rng, 6, 5, 25, 20, 200)
	eng := engine.New(engine.Options{Workers: 4})
	opts := Options{FrontierTarget: 16}

	var mu sync.Mutex
	captured := map[int]Finished{}
	o := opts
	var seenFrontier atomic.Int64
	o.OnRootDone = func(frontier int, done Finished) {
		seenFrontier.Store(int64(frontier))
		mu.Lock()
		captured[done.Root.Index] = done
		mu.Unlock()
	}
	ref, err := Search(context.Background(), eng, pipe, plat, model.Overlap, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(captured) != ref.Stats.Frontier {
		t.Fatalf("OnRootDone saw %d roots, frontier has %d", len(captured), ref.Stats.Frontier)
	}
	if got := int(seenFrontier.Load()); got != ref.Stats.Frontier {
		t.Fatalf("OnRootDone reported frontier %d, want %d", got, ref.Stats.Frontier)
	}

	replay := map[int]Finished{}
	for idx, done := range captured {
		if idx%2 == 0 {
			replay[idx] = done
		}
	}
	local, err := NewLocalExecutor(eng, pipe, plat, model.Overlap, opts)
	if err != nil {
		t.Fatal(err)
	}
	exec := &wireExecutor{local: local}
	o2 := opts
	o2.Executor = exec
	o2.Replay = replay
	res, err := Search(context.Background(), nil, pipe, plat, model.Overlap, o2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(exec.ran.Load()), ref.Stats.Frontier-len(replay); got != want {
		t.Fatalf("executor ran %d roots, want only the %d unreplayed ones", got, want)
	}
	if res.Mapping.String() != ref.Mapping.String() ||
		!res.Period.Equal(ref.Period) ||
		res.Proven != ref.Proven ||
		res.Stats != ref.Stats {
		t.Fatalf("replayed search diverged:\n got %v %v proven=%v %+v\nwant %v %v proven=%v %+v",
			res.Mapping, res.Period, res.Proven, res.Stats,
			ref.Mapping, ref.Period, ref.Proven, ref.Stats)
	}
}

// TestReplayIgnoresEntriesOfAnotherPlan: a checkpoint written under a
// different plan — another frontier (as a build with other bounds expands)
// or another warm period — must not vouch for this plan's roots. Every
// entry claims its subtree complete and empty; a replay that trusted them
// would skip roots it never explored and certify the warm start. Each
// mismatched entry must be dropped and its root run.
func TestReplayIgnoresEntriesOfAnotherPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pipe := pipeline.Random(rng, 3, 50, 500)
	plat := platform.Random(rng, 6, 5, 25, 20, 200)
	eng := engine.New(engine.Options{Workers: 4})
	opts := Options{FrontierTarget: 16}
	ref, err := Search(context.Background(), eng, pipe, plat, model.Overlap, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The same problem planned with another frontier target: its roots sit
	// at the same indices but describe other subtrees.
	other, _, err := Frontier(context.Background(), pipe, plat, "", 4*opts.FrontierTarget)
	if err != nil {
		t.Fatal(err)
	}
	mine, _, err := Frontier(context.Background(), pipe, plat, "", opts.FrontierTarget)
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) != ref.Stats.Frontier || len(other) == len(mine) {
		t.Fatalf("fixture frontiers: %d and %d roots (search planned %d); need two different plans",
			len(other), len(mine), ref.Stats.Frontier)
	}
	bogus := SubResult{Complete: true}
	for name, replay := range map[string]map[int]Finished{
		"other frontier": func() map[int]Finished {
			m := map[int]Finished{}
			for _, r := range other {
				m[r.Index] = Finished{Root: r, Result: bogus}
			}
			return m
		}(),
		"other warm period": func() map[int]Finished {
			m := map[int]Finished{}
			for _, r := range mine {
				m[r.Index] = Finished{Root: r, Warm: "1", Result: bogus}
			}
			return m
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			local, err := NewLocalExecutor(eng, pipe, plat, model.Overlap, opts)
			if err != nil {
				t.Fatal(err)
			}
			exec := &wireExecutor{local: local}
			o := opts
			o.Executor = exec
			o.Replay = replay
			res, err := Search(context.Background(), nil, pipe, plat, model.Overlap, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(exec.ran.Load()); got != ref.Stats.Frontier {
				t.Fatalf("executor ran %d roots, want all %d: a stale replay entry was trusted", got, ref.Stats.Frontier)
			}
			if res.Mapping.String() != ref.Mapping.String() || !res.Period.Equal(ref.Period) ||
				res.Proven != ref.Proven || res.Stats != ref.Stats {
				t.Fatalf("search with a stale replay diverged:\n got %v %v proven=%v %+v\nwant %v %v proven=%v %+v",
					res.Mapping, res.Period, res.Proven, res.Stats,
					ref.Mapping, ref.Period, ref.Proven, ref.Stats)
			}
		})
	}
}

// TestRacingReturnsSameProvenOptimum: racing mode reorders incumbent flow
// for speed, which may change node counts and tie winners — but the proven
// optimal period must be exactly the deterministic one.
func TestRacingReturnsSameProvenOptimum(t *testing.T) {
	for _, f := range generatedFamilies(t, []int64{13}) {
		t.Run(f.name, func(t *testing.T) {
			eng := engine.New(engine.Options{Workers: 4})
			opts := Options{FrontierTarget: 16}
			ref, refErr := Search(context.Background(), eng, f.pipe, f.plat, f.cm, opts)
			o := opts
			o.Racing = true
			o.Workers = 3
			res, resErr := Search(context.Background(), eng, f.pipe, f.plat, f.cm, o)
			if (refErr == nil) != (resErr == nil) {
				t.Fatalf("err mismatch: deterministic %v, racing %v", refErr, resErr)
			}
			if refErr != nil {
				return
			}
			if !res.Proven {
				t.Fatal("racing search did not prove its answer")
			}
			if !res.Period.Equal(ref.Period) {
				t.Fatalf("racing optimum %v, deterministic %v", res.Period, ref.Period)
			}
		})
	}
}

// TestFrontierIsPureAndMatchesSearch: Frontier must be deterministic,
// engine-free, JSON-stable, and produce exactly the FrontierTarget behavior
// Search reports in Stats.Frontier. The frontier is model-free, also for a
// strict search, whose cycle-time bound applies only below it: Frontier
// plus LocalExecutor.RunRoot on every root must add up to Search's Stats
// for both models, without a warm start and warm-started at the optimum
// (where the roots' own stage pairs are bounded before their walk).
func TestFrontierIsPureAndMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pipe := pipeline.Random(rng, 3, 50, 500)
	plat := platform.Random(rng, 6, 5, 25, 20, 200)
	eng := engine.New(engine.Options{Workers: 2})

	var res Result
	for _, cm := range model.Models() {
		cold, err := Search(context.Background(), eng, pipe, plat, cm, Options{FrontierTarget: 16})
		if err != nil {
			t.Fatal(err)
		}
		if cm == model.Overlap {
			res = cold
		}
		warm := Options{FrontierTarget: 16, Incumbent: cold.Mapping, IncumbentPeriod: cold.Period}
		for _, o := range []Options{{FrontierTarget: 16}, warm} {
			want, err := Search(context.Background(), eng, pipe, plat, cm, o)
			if err != nil {
				t.Fatal(err)
			}
			warmPeriod := ""
			if o.Incumbent != nil {
				warmPeriod = o.IncumbentPeriod.String()
			}
			roots, got, err := Frontier(context.Background(), pipe, plat, warmPeriod, 16)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := NewLocalExecutor(eng, pipe, plat, cm, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range roots {
				sub, err := exec.RunRoot(context.Background(), r, warmPeriod)
				if err != nil {
					t.Fatal(err)
				}
				got.add(sub.Stats)
			}
			if got != want.Stats {
				t.Fatalf("%v, warm %q: Frontier + RunRoot counted %+v, Search %+v", cm, warmPeriod, got, want.Stats)
			}
		}
	}
	roots, stats, err := Frontier(context.Background(), pipe, plat, "", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != res.Stats.Frontier || stats.Frontier != res.Stats.Frontier {
		t.Fatalf("Frontier produced %d roots (stats %d), Search reported %d",
			len(roots), stats.Frontier, res.Stats.Frontier)
	}
	b1, err := json.Marshal(roots)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := Frontier(context.Background(), pipe, plat, "", 16)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("Frontier is not deterministic across calls")
	}
	for i, r := range roots {
		if r.Index != i {
			t.Fatalf("root %d carries index %d", i, r.Index)
		}
		var rt Root
		if err := json.Unmarshal(mustJSON(t, r), &rt); err != nil {
			t.Fatal(err)
		}
		nd1, err := r.node()
		if err != nil {
			t.Fatal(err)
		}
		nd2, err := rt.node()
		if err != nil {
			t.Fatal(err)
		}
		if !nd1.lb.Equal(nd2.lb) || nd1.free != nd2.free {
			t.Fatalf("root %d does not survive a JSON round trip", i)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
