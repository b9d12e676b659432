package bnb

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// scored is one feasible mapping of a family as per-stage processor masks,
// with its exact period.
type scored struct {
	sets   []uint
	period rat.Rat
}

// scoredMappings enumerates every replicated mapping of f, as bruteForceBest
// does, and keeps each feasible one with its exact period.
func scoredMappings(t *testing.T, f family) []scored {
	t.Helper()
	n, p := f.pipe.NumStages(), f.plat.NumProcs()
	var out []scored
	sets := make([]uint, n)
	var rec func(stage int, free uint)
	rec = func(stage int, free uint) {
		if stage == n {
			reps := make([][]int, n)
			for i, mask := range sets {
				for u := 0; u < p; u++ {
					if mask&(1<<u) != 0 {
						reps[i] = append(reps[i], u)
					}
				}
			}
			inst, err := model.FromMapped(f.pipe, f.plat, mapping.MustNew(reps, p))
			if err != nil {
				return // missing link
			}
			res, err := core.Period(inst, f.cm)
			if err != nil {
				return
			}
			out = append(out, scored{sets: append([]uint(nil), sets...), period: res.Period})
			return
		}
		for s := free; s != 0; s = (s - 1) & free {
			sets[stage] = s
			rec(stage+1, free&^s)
		}
	}
	rec(0, (1<<p)-1)
	return out
}

func maskOf(procs []int) uint {
	var m uint
	for _, u := range procs {
		m |= 1 << u
	}
	return m
}

// TestBoundsAdmissibleOnGeneratedFamilies checks every bound the walker
// prunes with against the exact optimum below it. The walk mirrors choose
// without pruning: for every stage prefix and every partial class choice,
// the minimum exact period lo over all completions (every mapping that
// keeps the prefix's sets and the stage's members taken so far, adding to
// the stage only free members of the classes not yet decided) must be at
// least
//
//   - at a node (the stage's choice complete): the stage's
//     work/(taken·slowest), and on strict families cycleBound (the walker
//     calls it at every node, so the previous stage's state is the
//     prefix's) and the largest cycleBound over the prefix, which the
//     walker hands down in lb.
//
// and the computation relaxation must admit every reference above lo (a
// completion at lo has every column at most lo): at every node for the
// open stages, and at every partial choice where choose runs it (right after
// a class other than the last contributes members) with the partial stage
// included.
//
// The completions here include non-canonical ones, a superset of what the
// walker enumerates below the node, so the check is the stronger one.
func TestBoundsAdmissibleOnGeneratedFamilies(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, f := range generatedFamilies(t, seeds) {
		t.Run(f.name, func(t *testing.T) {
			all := scoredMappings(t, f)
			pr, err := newProblem(f.pipe, f.plat, f.cm, Options{})
			if err != nil {
				t.Fatal(err)
			}
			root := &node{used: make([]int, len(pr.classes)), free: f.plat.NumProcs()}
			w := newWalker(pr, context.Background(), nil, root, 0, pr.n, nil, rat.Rat{}, false)

			// best is the minimum period over the completions of the state:
			// stages < stage hold exactly their sets, stage holds taken plus
			// any subset of extra. ok is false when none is feasible.
			best := func(stage int, extra uint) (lo rat.Rat, ok bool) {
				taken := maskOf(w.replicas[stage])
			next:
				for _, s := range all {
					for j := 0; j < stage; j++ {
						if s.sets[j] != maskOf(w.replicas[j]) {
							continue next
						}
					}
					if s.sets[stage]&taken != taken || s.sets[stage]&^taken&^extra != 0 {
						continue
					}
					if !ok || s.period.Less(lo) {
						lo, ok = s.period, true
					}
				}
				return lo, ok
			}
			checks := 0
			check := func(what string, lo rat.Rat, num, den1, den2 int64) {
				t.Helper()
				checks++
				if lo.CmpFrac(num, den1, den2) < 0 {
					t.Fatalf("%s bound %d/(%d·%d) exceeds the best completion %v (prefix %v, used %v)",
						what, num, den1, den2, lo, w.replicas, w.used)
				}
			}
			// relaxAdmits checks that the relaxation admits a reference just
			// above lo.
			relaxAdmits := func(what string, lo rat.Rat, firstOpen, part, taken, c int) {
				t.Helper()
				checks++
				w.setRef(lo.Add(lo.DivInt(1 << 20)))
				if w.relaxMeets(firstOpen, part, taken, c) {
					t.Fatalf("%s relaxation cuts above the best completion %v (prefix %v, used %v)", what, lo, w.replicas, w.used)
				}
			}

			// prefix[i] is the largest cycleBound of stages 0..i, as long as
			// every link between them exists.
			prefix := make([]rat.Rat, pr.n)
			checkRat := func(what string, lo, bound rat.Rat) {
				t.Helper()
				checks++
				if lo.Less(bound) {
					t.Fatalf("%s bound %v exceeds the best completion %v (prefix %v)", what, bound, lo, w.replicas)
				}
			}
			var rec func(stage, c, taken int, slowest int64)
			rec = func(stage, c, taken int, slowest int64) {
				open := pr.n - stage - 1
				if c == len(pr.classes) {
					if taken == 0 {
						return
					}
					cycle, linked := rat.Rat{}, false
					if w.cycle {
						cycle, linked = w.cycleBound(stage)
						prefix[stage] = cycle
						if stage > 0 {
							prefix[stage] = rat.Max(prefix[stage-1], cycle)
						}
					}
					if lo, ok := best(stage, 0); ok {
						if w.cycle {
							if !linked {
								t.Fatalf("prefix %v has a feasible completion, but the cycle-time bound found a missing link", w.replicas)
							}
							checkRat("cycle-time", lo, cycle)
							checkRat("prefix cycle-time", lo, prefix[stage])
						}
						check("stage", lo, pr.work(stage), int64(taken), slowest)
						if open > 0 {
							relaxAdmits("open-stage", lo, stage+1, -1, 0, 0)
						}
					}
					if open > 0 {
						rec(stage+1, 0, 0, 0)
					}
					return
				}
				cl := &pr.classes[c]
				maxT := min(w.free-open, len(cl.members)-w.used[c])
				for t := maxT; t >= 0; t-- {
					sl := slowest
					if t > 0 {
						w.take(stage, c, t)
						if sl == 0 || cl.speed < sl {
							sl = cl.speed
						}
						if c+1 < len(pr.classes) {
							// Members the remaining classes could still add.
							var extra uint
							for k := c + 1; k < len(pr.classes); k++ {
								extra |= maskOf(pr.classes[k].members[w.used[k]:])
							}
							if lo, ok := best(stage, extra); ok {
								relaxAdmits("partial-stage", lo, stage+1, stage, taken+t, c)
							}
						}
					}
					rec(stage, c+1, taken+t, sl)
					if t > 0 {
						w.give(stage, c, t)
					}
				}
			}
			rec(0, 0, 0, 0)
			if checks == 0 {
				t.Fatal("no bound was checked")
			}
		})
	}
}

// TestCycleBoundEqualsMct: at every complete mapping of the strict
// families, the largest cycleBound over the stages is exactly the
// instance's Mct under the strict model, so the walker's port sums and
// model.Instance's cannot drift apart; and the bound finds a missing link
// exactly where model.FromMapped refuses the mapping. Odd stages hand
// their replica set over in descending id order, so the bound's own
// round-robin sort is exercised (reversing every stage at once would not
// change a single port sum).
func TestCycleBoundEqualsMct(t *testing.T) {
	mappings := 0
	for _, f := range generatedFamilies(t, []int64{1, 2, 3, 4}) {
		if f.cm != model.Strict {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			n, p := f.pipe.NumStages(), f.plat.NumProcs()
			pr, err := newProblem(f.pipe, f.plat, f.cm, Options{})
			if err != nil {
				t.Fatal(err)
			}
			root := &node{used: make([]int, len(pr.classes)), free: p}
			w := newWalker(pr, context.Background(), nil, root, 0, n, nil, rat.Rat{}, false)
			var rec func(stage int, free uint)
			rec = func(stage int, free uint) {
				if stage == n {
					mappings++
					mct, linked := rat.Zero(), true
					for i := 0; i < n && linked; i++ {
						var ct rat.Rat
						ct, linked = w.cycleBound(i)
						mct = rat.Max(mct, ct)
					}
					reps := make([][]int, n)
					for i, r := range w.replicas {
						reps[i] = append([]int(nil), r...)
						slices.Sort(reps[i])
					}
					inst, err := model.FromMapped(f.pipe, f.plat, mapping.MustNew(reps, p))
					if (err == nil) != linked {
						t.Fatalf("mapping %v: FromMapped error %v, cycle-time bound linked=%v", reps, err, linked)
					}
					if err == nil && !mct.Equal(inst.Mct(model.Strict)) {
						t.Fatalf("mapping %v: cycle-time bound %v, Mct %v", reps, mct, inst.Mct(model.Strict))
					}
					return
				}
				for s := free; s != 0; s = (s - 1) & free {
					w.replicas[stage] = w.replicas[stage][:0]
					for k := 0; k < p; k++ {
						u := k
						if stage%2 == 1 {
							u = p - 1 - k
						}
						if s&(1<<u) != 0 {
							w.replicas[stage] = append(w.replicas[stage], u)
						}
					}
					rec(stage+1, free&^s)
				}
			}
			rec(0, (1<<p)-1)
		})
	}
	if mappings == 0 {
		t.Fatal("no strict mapping was checked")
	}
}

// TestSearchWhenSpeedsOverflow: a platform whose total speed does not fit
// in int64 (speeds arrive from outside the program) still proves the
// brute-force optimum: no bound sums speeds, and the relaxation's demands
// compare work with reference·count·speed in exact 192-bit products.
func TestSearchWhenSpeedsOverflow(t *testing.T) {
	huge := int64(math.MaxInt64/2 + 1)
	plat, err := platform.New([]int64{huge, huge, huge, 7}, platform.Uniform(4, 1, 100).Bandwidths)
	if err != nil {
		t.Fatal(err)
	}
	pipe := pipeline.MustNew([]int64{300, 200}, []int64{50})
	want, wantMapp := bruteForceBest(t, pipe, plat, model.Overlap)
	// Warm-started, so the bounds are consulted from the first node on.
	res, err := Search(context.Background(), engine.New(engine.Options{Workers: 1}), pipe, plat, model.Overlap,
		Options{Incumbent: wantMapp, IncumbentPeriod: want})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || !res.Period.Equal(want) {
		t.Fatalf("proven=%v period %v, brute force %v", res.Proven, res.Period, want)
	}
}

// TestRelaxationIsExact: on small random walker states, relaxMeets answers
// "cut" exactly when no assignment of the free processors gives every open
// stage a non-empty set whose column w/(m·slowest) is below the reference
// (and, with a partial stage, lets it reach such a column by adding free
// members of the classes after its last one). Speeds repeat, in
// consecutive runs and apart, and some are large enough that their sum
// overflows int64. With the cap below the open-stage count, the test may
// only answer "feasible" more often than the uncapped one.
func TestRelaxationIsExact(t *testing.T) {
	huge := int64(math.MaxInt64/2 + 1)
	pool := []int64{huge, huge, 13, 8, 5, 5, 3}
	rng := rand.New(rand.NewSource(1))
	trials := 10000
	if testing.Short() {
		trials = 2000
	}
	// Coverage: answers either way, and either way with a partial stage
	// that still needs members (else the program drops it).
	var cutsSeen, feasibleSeen, partialCut, partialFeasible, cappedSeen int
	for trial := 0; trial < trials; trial++ {
		p := 1 + rng.Intn(8)
		n := 1 + rng.Intn(min(p, 5))
		speeds := make([]int64, p)
		for u := range speeds {
			speeds[u] = pool[rng.Intn(len(pool))]
		}
		plat, err := platform.New(speeds, platform.Uniform(p, 1, 100).Bandwidths)
		if err != nil {
			t.Fatal(err)
		}
		works, sizes := make([]int64, n), make([]int64, n-1)
		for i := range works {
			works[i] = 1 + rng.Int63n(60)
		}
		for i := range sizes {
			sizes[i] = 1
		}
		pipe := pipeline.MustNew(works, sizes)
		ref := rat.New(1+rng.Int63n(40), 1+rng.Int63n(6))
		if rng.Intn(4) == 0 {
			ref = rat.New(1+rng.Int63n(40), huge)
		}
		pr, err := newProblem(pipe, plat, model.Overlap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w := newWalker(pr, context.Background(), nil, &node{used: make([]int, len(pr.classes)), free: p}, 0, n, nil, rat.Rat{}, false)
		w.setRef(ref)

		// Stages < firstOpen take random members; with a partial stage the
		// last of them, part, takes members of classes < c and at least one
		// of class c, as choose does before it calls cuts.
		firstOpen := rng.Intn(n + 1)
		part, c, taken, tookC := -1, 0, 0, false
		if firstOpen > 0 && len(pr.classes) > 1 && rng.Intn(2) == 0 {
			part = firstOpen - 1
			c = rng.Intn(len(pr.classes) - 1)
		}
		for i := 0; i < firstOpen; i++ {
			last := len(pr.classes) - 1
			if i == part {
				last = c
			}
			for k := 0; k <= last; k++ {
				freeK := len(pr.classes[k].members) - w.used[k]
				if freeK == 0 {
					continue
				}
				tk := 0
				if rng.Intn(3) == 0 {
					tk = rng.Intn(freeK + 1)
				}
				if i == part && k == c && tk == 0 {
					tk = 1
				}
				w.take(i, k, tk)
				if i == part {
					taken += tk
					tookC = k == c
				}
			}
		}
		if part >= 0 && !tookC {
			continue // class c had no free member to take
		}
		open := n - firstOpen
		if open == 0 && part < 0 {
			continue
		}

		// Brute force over every labeling of the free processors: 0 leaves
		// one unused, 1..open hands it to an open stage, open+1 to part.
		type proc struct {
			speed int64
			late  bool // in a class after c: part may take it
		}
		var free []proc
		for k, cl := range pr.classes {
			for range cl.members[w.used[k]:] {
				free = append(free, proc{cl.speed, k > c})
			}
		}
		labels := open + 1
		if part >= 0 {
			labels++
		}
		if math.Pow(float64(labels), float64(len(free))) > 2e5 {
			continue
		}
		label := make([]int, len(free))
		count := make([]int64, labels)
		slow := make([]int64, labels)
		below := func(work, m, s int64) bool { return ref.CmpFrac(work, m, s) > 0 }
		feasible := false
		var rec func(i int)
		rec = func(i int) {
			if feasible {
				return
			}
			if i == len(free) {
				for l := range count {
					count[l], slow[l] = 0, 0
				}
				for u, l := range label {
					count[l]++
					if slow[l] == 0 || free[u].speed < slow[l] {
						slow[l] = free[u].speed
					}
				}
				for j := 1; j <= open; j++ {
					if count[j] == 0 || !below(pr.work(firstOpen+j-1), count[j], slow[j]) {
						return
					}
				}
				if part >= 0 {
					s := pr.classes[c].speed
					if count[open+1] > 0 {
						s = min(s, slow[open+1])
					}
					if !below(pr.work(part), int64(taken)+count[open+1], s) {
						return
					}
				}
				feasible = true
				return
			}
			for l := 0; l < labels; l++ {
				if l == open+1 && !free[i].late {
					continue
				}
				label[i] = l
				rec(i + 1)
			}
		}
		rec(0)

		got := w.relaxMeets(firstOpen, part, taken, c)
		if got == feasible {
			t.Fatalf("trial %d: speeds %v works %v ref %v used %v part %d (taken %d, class %d) firstOpen %d: relaxation cuts=%v, brute force feasible=%v",
				trial, speeds, works, ref, w.used, part, taken, c, firstOpen, got, feasible)
		}
		if got {
			cutsSeen++
		} else {
			feasibleSeen++
		}
		if part >= 0 && w.demand[part*len(pr.classes)+c] > taken {
			if got {
				partialCut++
			} else {
				partialFeasible++
			}
		}
		heavy := pr.heavy[firstOpen]
		for cp := 1; cp < open; cp++ {
			pr.heavy[firstOpen] = heavy[:cp]
			if w.relaxMeets(firstOpen, part, taken, c) && !got {
				t.Fatalf("trial %d: capped at %d stages the relaxation cuts, uncapped it does not", trial, cp)
			}
			cappedSeen++
		}
	}
	if cutsSeen == 0 || feasibleSeen == 0 || partialCut == 0 || partialFeasible == 0 || cappedSeen == 0 {
		t.Fatalf("coverage: %d cuts, %d feasible, partial stage %d cut and %d feasible, %d capped",
			cutsSeen, feasibleSeen, partialCut, partialFeasible, cappedSeen)
	}
	t.Logf("%d cuts, %d feasible, partial stage %d cut and %d feasible, %d capped checks",
		cutsSeen, feasibleSeen, partialCut, partialFeasible, cappedSeen)
}
