package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	pipe, err := NewPipeline([]int64{200, 1500, 800}, []int64{1000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	plat := UniformPlatform(6, 100, 1000)
	mapp, err := NewMapping([][]int{{0}, {1, 2, 3}, {4}}, 6)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(pipe, plat, mapp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Throughput(inst, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period.Sign() <= 0 {
		t.Fatal("non-positive period")
	}
	if res.Period.Less(res.Mct) {
		t.Fatal("period below Mct")
	}
	tpn, err := ThroughputTPN(inst, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !tpn.Period.Equal(res.Period) {
		t.Fatalf("TPN %v vs poly %v", tpn.Period, res.Period)
	}
}

func TestSolverAPI(t *testing.T) {
	s := NewSolver(0)
	for _, inst := range []*Instance{ExampleA(), ExampleB(), ExampleA()} {
		for _, cm := range []CommModel{Overlap, Strict} {
			got, err := s.Throughput(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Throughput(inst, cm)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Period.Equal(want.Period) {
				t.Fatalf("%v: solver %v != free %v", cm, got.Period, want.Period)
			}
		}
	}
	// A capped solver refuses what it cannot unfold.
	if _, err := NewSolver(5).ThroughputTPN(ExampleA(), Strict); err == nil {
		t.Fatal("cap 5 on m=6 should fail")
	}
}

func TestExamplesExposed(t *testing.T) {
	a, err := Throughput(ExampleA(), Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if a.Period.Float64() != 189 {
		t.Errorf("Example A overlap period = %v", a.Period)
	}
	b, err := Throughput(ExampleB(), Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if b.HasCriticalResource() {
		t.Error("Example B should have no critical resource")
	}
	if got := len(CriticalResources(ExampleB(), Overlap)); got != 1 {
		t.Errorf("Example B Mct resources = %d", got)
	}
	if ExampleC().PathCount() != 10395 {
		t.Error("Example C path count wrong")
	}
}

func TestResourcesDecomposition(t *testing.T) {
	rs := Resources(ExampleA())
	if len(rs) != 7 {
		t.Fatalf("resources = %d, want 7", len(rs))
	}
	for _, r := range rs {
		if r.CexecStrict.Less(r.CexecOverlap) {
			t.Errorf("resource %s: strict Cexec below overlap", r.Name)
		}
	}
}

func TestSimulateAndRender(t *testing.T) {
	tr, err := Simulate(ExampleB(), Overlap, 6)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	res, _ := Throughput(ExampleB(), Overlap)
	period := res.Period.MulInt(tr.PathCount)
	err = RenderGantt(&b, tr, GanttOptions{From: period, To: period.MulInt(3), Width: 80, PeriodMarks: period})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "P2-out") {
		t.Error("Gantt missing P2-out row")
	}
}

func TestMappingSearchAPI(t *testing.T) {
	pipe, _ := NewPipeline([]int64{10, 400, 10}, []int64{10, 10})
	plat := UniformPlatform(6, 10, 100)
	gr, err := FindMappingGreedy(pipe, plat, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := FindMappingRandom(pipe, plat, Overlap, rand.New(rand.NewSource(1)), 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Period.Sign() <= 0 || rs.Period.Sign() <= 0 {
		t.Fatal("non-positive periods from search")
	}
}

func TestFindMappingExactAPI(t *testing.T) {
	pipe, _ := NewPipeline([]int64{10, 400, 10}, []int64{10, 10})
	plat := UniformPlatform(6, 10, 100)
	exact, err := FindMappingExact(pipe, plat, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Proven {
		t.Fatal("undeadlined exact search must prove its answer")
	}
	gr, err := FindMappingGreedy(pipe, plat, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Period.Less(exact.Period) {
		t.Fatalf("greedy %v beat the proven optimum %v", gr.Period, exact.Period)
	}
	// The engine-routed form proves the same optimum.
	eng := NewEngine(EngineOptions{Workers: 2})
	viaEngine, err := eng.SearchMappingsExact(context.Background(), pipe, plat, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !viaEngine.Period.Equal(exact.Period) || !viaEngine.Proven {
		t.Fatalf("engine-routed exact search diverged: %v vs %v", viaEngine.Period, exact.Period)
	}
}

func TestMonteCarloDynamicAPI(t *testing.T) {
	st, err := MonteCarloDynamic(ExampleB(), Overlap, Perturbation{JitterPct: 5}, 10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 10 {
		t.Fatalf("runs = %d", st.Runs)
	}
}

func TestStarPlatformAPI(t *testing.T) {
	plat, err := StarPlatform([]int64{10, 20}, []int64{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if plat.Bandwidths[0][1] != 3 {
		t.Errorf("star bandwidth = %d", plat.Bandwidths[0][1])
	}
}

func TestLatencyAPI(t *testing.T) {
	st, err := Latency(ExampleB(), Overlap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Min.Sign() <= 0 || st.Max.Less(st.Min) {
		t.Fatalf("bad latency stats: %+v", st)
	}
}

func TestFindMappingBestAPI(t *testing.T) {
	pipe, _ := NewPipeline([]int64{10, 400, 10}, []int64{10, 10})
	plat := UniformPlatform(6, 10, 100)
	best, err := FindMappingBest(pipe, plat, Overlap, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if best.Period.Sign() <= 0 {
		t.Fatal("non-positive period")
	}
}

func TestAnalyzeAPI(t *testing.T) {
	rep, err := Analyze(ExampleB(), Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasCriticalResource() {
		t.Fatal("Example B should have no critical resource")
	}
	if len(rep.Resources) != 7 {
		t.Fatalf("resources = %d", len(rep.Resources))
	}
}

// TestServeAndHandler covers the public service surface: NewServerHandler
// answers an ExampleA evaluation identically to Throughput, and Serve runs
// a real listener with graceful shutdown.
func TestServeAndHandler(t *testing.T) {
	h := NewServerHandler(ServerOptions{Workers: 2})
	inst := ExampleA()
	want, err := Throughput(inst, Strict)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"instance": inst, "model": "strict"})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/evaluate", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("evaluate: status %d body %s", rec.Code, rec.Body)
	}
	var got struct {
		Period string `json:"period"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Period != want.Period.String() {
		t.Fatalf("service period %s != library period %s", got.Period, want.Period)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "127.0.0.1:0", ServerOptions{Workers: 1}, func(format string, a ...any) {
			line := fmt.Sprintf(format, a...)
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.Fields(line[i+len("listening on "):])[0]
			}
		})
	}()
	select {
	case addr := <-addrCh:
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never reported its address")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after cancel", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not stop after cancel")
	}
}
