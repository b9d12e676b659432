package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/exper"
	"repro/internal/model"
	"repro/internal/tpn"
)

// TestMctCheckOnTable2Grid runs one seed's strict Table 2 grid, every
// instance drawn as exper.RunAllEngine draws it, through PeriodTPN and
// through Karp on the unfolded net directly. The periods must be equal,
// and the potential check at λ = Mct·m, the one PeriodTPN runs before
// Karp, must hold on exactly the instances that have a critical resource.
func TestMctCheckOnTable2Grid(t *testing.T) {
	stride := 1
	if testing.Short() || core.RaceEnabled {
		stride = 16
	}
	const seed = 1
	cm := model.Strict
	s := core.NewSolver()
	var ws cycles.Workspace
	total, hits := 0, 0
	for i, row := range exper.Table2Rows(cm, 1, exper.DefaultMaxPathCount) {
		rowSeed := seed + int64(i)*1_000_003 + int64(cm)*7_000_009
		for k := 0; k < row.Runs; k += stride {
			js := rowSeed + int64(k)
			sp := row.Specs[int(js)%len(row.Specs)]
			inst, err := sp.Instance(rand.New(rand.NewSource(js)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.PeriodTPN(inst, cm)
			if err != nil {
				t.Fatalf("row %d instance %d: %v", i, k, err)
			}
			net, err := tpn.Build(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			sys := net.System()
			crit, err := ws.MaxRatio(sys)
			if err != nil {
				t.Fatal(err)
			}
			want := crit.Ratio.DivInt(inst.PathCount())
			if got.Period.String() != want.String() || got.Period.IsBig() != want.IsBig() {
				t.Fatalf("row %d instance %d: PeriodTPN %v, Karp %v", i, k, got.Period, want)
			}
			ok, err := ws.RatioAtMostPlan(ws.Compile(sys), sys, inst.Mct(cm).MulInt(inst.PathCount()))
			if err != nil {
				t.Fatal(err)
			}
			if ok != got.HasCriticalResource() {
				t.Fatalf("row %d instance %d: check %v, period %v, Mct %v", i, k, ok, got.Period, got.Mct)
			}
			total++
			if ok {
				hits++
			}
		}
	}
	t.Logf("%d strict instances, the check held on the %d with a critical resource", total, hits)
}
