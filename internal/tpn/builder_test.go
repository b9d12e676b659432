package tpn

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/examplesdata"
	"repro/internal/model"
	"repro/internal/rat"
)

// TestBuilderMatchesFreeFunctions interleaves models and instances on one
// reused Builder and requires the produced nets to be structurally
// identical to the freshly allocated ones: same grid, same transitions
// (times and metadata), same places, same critical-cycle ratio.
func TestBuilderMatchesFreeFunctions(t *testing.T) {
	insts := []*model.Instance{
		examplesdata.ExampleA(),
		examplesdata.ExampleB(),
		examplesdata.ExampleA(), // revisit after a different shape
	}
	var b Builder
	for k, inst := range insts {
		for _, cm := range model.Models() {
			got, err := b.Build(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("inst %d %v: grid %dx%d != %dx%d", k, cm, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			if len(got.Transitions) != len(want.Transitions) {
				t.Fatalf("inst %d %v: %d transitions, want %d", k, cm, len(got.Transitions), len(want.Transitions))
			}
			for i := range got.Transitions {
				g, w := got.Transitions[i], want.Transitions[i]
				if !g.Time.Equal(w.Time) || g.Row != w.Row || g.Col != w.Col ||
					g.Kind != w.Kind || g.Stage != w.Stage || g.Proc != w.Proc || g.Dst != w.Dst {
					t.Fatalf("inst %d %v: transition %d: %+v != %+v", k, cm, i, g, w)
				}
				if got.TransitionName(i) != want.TransitionName(i) {
					t.Fatalf("inst %d %v: lazy name %q != %q", k, cm, got.TransitionName(i), want.TransitionName(i))
				}
			}
			if len(got.Places) != len(want.Places) {
				t.Fatalf("inst %d %v: %d places, want %d", k, cm, len(got.Places), len(want.Places))
			}
			for i := range got.Places {
				g, w := got.Places[i], want.Places[i]
				if g.From != w.From || g.To != w.To || g.Tokens != w.Tokens || g.Proc != w.Proc {
					t.Fatalf("inst %d %v: place %d: %+v != %+v", k, cm, i, g, w)
				}
				if got.PlaceLabel(i) != want.PlaceLabel(i) {
					t.Fatalf("inst %d %v: place label %q != %q", k, cm, got.PlaceLabel(i), want.PlaceLabel(i))
				}
			}
			gr, err := got.MaxCycleRatio()
			if err != nil {
				t.Fatal(err)
			}
			wr, err := want.MaxCycleRatio()
			if err != nil {
				t.Fatal(err)
			}
			if !gr.Ratio.Equal(wr.Ratio) {
				t.Fatalf("inst %d %v: builder ratio %v != fresh %v", k, cm, gr.Ratio, wr.Ratio)
			}
		}
	}
}

// TestBuilderRowCap exercises the per-builder cap: an instance whose
// unfolded net exceeds it must be refused with the configured cap in the
// error, and raising the cap on the same builder must let it through.
func TestBuilderRowCap(t *testing.T) {
	inst := examplesdata.ExampleA() // m = 6
	b := Builder{MaxRows: 5}
	_, err := b.BuildStrict(inst)
	var tooLarge ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("got err %v, want ErrTooLarge", err)
	}
	if tooLarge.Rows != 6 || tooLarge.Cap != 5 {
		t.Fatalf("ErrTooLarge = %+v, want Rows 6 Cap 5", tooLarge)
	}
	b.MaxRows = 6
	if _, err := b.BuildStrict(inst); err != nil {
		t.Fatalf("cap 6 on m=6: %v", err)
	}
	b.MaxRows = 0 // back to the package default
	if b.RowCap() != MaxRows {
		t.Fatalf("RowCap() = %d, want default %d", b.RowCap(), MaxRows)
	}
}

// TestPlacesDependOnReplicationOnly pins the property the float-plan cache
// of core.Solver keys on: under a given model, the places of the unfolded
// net (endpoints, order, tokens) are a function of the replication counts
// alone; operation times only change transition times.
func TestPlacesDependOnReplicationOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		reps := make([]int, 2+rng.Intn(3))
		for i := range reps {
			reps[i] = 1 + rng.Intn(4)
		}
		a, b := randomTimes(rng, reps), randomTimes(rng, reps)
		for _, cm := range model.Models() {
			var ba, bb Builder
			na, err := ba.Build(a, cm)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := bb.Build(b, cm)
			if err != nil {
				t.Fatal(err)
			}
			if len(na.Places) != len(nb.Places) || len(na.Transitions) != len(nb.Transitions) {
				t.Fatalf("reps %v %v: nets differ in size", reps, cm)
			}
			for i := range na.Places {
				pa, pb := na.Places[i], nb.Places[i]
				if pa.From != pb.From || pa.To != pb.To || pa.Tokens != pb.Tokens {
					t.Fatalf("reps %v %v: place %d: %+v != %+v", reps, cm, i, pa, pb)
				}
			}
		}
	}
}

// randomTimes draws an instance with the given replication counts and
// operation times in [1, 100].
func randomTimes(rng *rand.Rand, reps []int) *model.Instance {
	draw := func() rat.Rat { return rat.New(1+rng.Int63n(100), 1+rng.Int63n(3)) }
	comp := make([][]rat.Rat, len(reps))
	comm := make([][][]rat.Rat, len(reps)-1)
	for i, m := range reps {
		comp[i] = make([]rat.Rat, m)
		for a := range comp[i] {
			comp[i][a] = draw()
		}
		if i+1 < len(reps) {
			comm[i] = make([][]rat.Rat, m)
			for a := range comm[i] {
				comm[i][a] = make([]rat.Rat, reps[i+1])
				for b := range comm[i][a] {
					comm[i][a][b] = draw()
				}
			}
		}
	}
	inst, err := model.FromTimes(comp, comm)
	if err != nil {
		panic(err)
	}
	return inst
}
