package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/store"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 5, 4, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 samples = %v, want the lower middle 2", got)
	}
}

// TestMetricsDelta scrapes a real node's /metrics around known requests and
// checks the parsed deltas count exactly those requests.
func TestMetricsDelta(t *testing.T) {
	srv := httptest.NewServer(service.NewServer(service.Options{Workers: 1}).Handler())
	defer srv.Close()
	sv := &serving{
		nodes:  make([]*service.Server, 1),
		https:  []*httpServer{{url: srv.URL}},
		front:  srv.URL,
		client: srv.Client(),
	}
	in, err := genServeInputs(1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := sv.scrape(false)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(service.InstanceRequest{Instance: in.hot[0]})
	post := func(path string, body []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	post("/v1/instances", body)
	eval, _ := json.Marshal(service.EvaluateRequest{InstanceID: store.ContentID(in.hot[0]), Model: "strict"})
	post("/v1/evaluate", eval)
	post("/v1/evaluate", eval)
	after, _, err := sv.scrape(false)
	if err != nil {
		t.Fatal(err)
	}
	d := after[0].sub(before[0])
	if d.Store.Puts != 1 || d.Store.Evictions != 0 {
		t.Errorf("store delta %+v, want 1 put and no eviction", d.Store)
	}
	if d.RespMemo == nil || d.RespMemo.Hits != 1 || d.RespMemo.Misses != 1 {
		t.Errorf("response memo delta %+v, want 1 hit and 1 miss", d.RespMemo)
	}
	if c := d.Cache["auto"]; c.Misses != 1 || c.Hits != 0 {
		t.Errorf("engine memo delta %+v, want 1 miss", c)
	}
	if h := d.Latency["evaluate/auto"]; h.Count != 2 || h.SumMs <= 0 {
		t.Errorf("evaluate latency delta %+v, want 2 requests with time", h)
	}
	if h := d.QueueWait["evaluate"]; h.Count != 1 {
		t.Errorf("queue wait delta %+v, want 1 (the memo hit takes no slot)", h)
	}
	var sum nodeMetrics
	sum.add(d)
	sum.add(d)
	if sum.Store.Puts != 2 || sum.Latency["evaluate/auto"].Count != 4 {
		t.Errorf("summing two deltas gave %+v", sum)
	}
}

func TestRouterBlockDelta(t *testing.T) {
	parse := func(s string) routerBlock {
		var rb routerBlock
		if err := json.Unmarshal([]byte(s), &rb); err != nil {
			t.Fatal(err)
		}
		return rb
	}
	a := parse(`{"router":{"retries":1,"replays":2,"perNode":{"n0":10,"n1":5},"replayCache":{"hits":1,"misses":3},"respMemo":{"hits":4,"misses":6}},"nodes":{"n0":null}}`)
	b := parse(`{"router":{"retries":1,"replays":5,"perNode":{"n0":14,"n1":9},"replayCache":{"hits":2,"misses":3},"respMemo":{"hits":10,"misses":7}}}`)
	d := b.sub(a).Router
	if d.Retries != 0 || d.Replays != 3 || d.PerNode["n0"] != 4 || d.PerNode["n1"] != 4 ||
		d.ReplayCache != (hitMiss{1, 0}) || d.RespMemo == nil || *d.RespMemo != (hitMiss{6, 1}) {
		t.Errorf("router delta %+v", d)
	}
}

func TestServeInputsDeterministic(t *testing.T) {
	a, err := genServeInputs(42, 2000, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genServeInputs(42, 2000, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genServeInputs(43, 2000, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y *serveInputs) bool {
		for i := range x.ops {
			if x.ops[i].kind != y.ops[i].kind || !bytes.Equal(x.ops[i].body, y.ops[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed generated different op lists")
	}
	if same(a, c) {
		t.Fatal("different seeds generated the same op list")
	}
	var kinds [numOpKinds]int
	ids := map[string]bool{}
	for _, set := range [][]*model.Instance{a.hot, a.filler} {
		for _, inst := range set {
			ids[store.ContentID(inst)] = true
		}
	}
	for _, op := range a.ops {
		kinds[op.kind]++
		if op.kind == opHit {
			continue
		}
		id := store.ContentID(op.inst)
		if ids[id] {
			t.Fatalf("%s op reuses instance %s", opNames[op.kind], id)
		}
		ids[id] = true
	}
	for k, share := range [numOpKinds]float64{0.80, 0.15, 0.05} {
		got := float64(kinds[k]) / float64(len(a.ops))
		if got < share-0.03 || got > share+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", opNames[k], got, share)
		}
	}
}

func TestSearchProblemsDeterministic(t *testing.T) {
	a, err := genSearchProblems(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genSearchProblems(5)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("job %d differs for the same seed", i)
		}
		if a[i].exact {
			exact++
		}
	}
	if exact != 2 || len(a) != 2+searchHeuristics {
		t.Fatalf("%d jobs with %d exact, want %d with 2", len(a), exact, 2+searchHeuristics)
	}
}

func TestLayerSelfTimes(t *testing.T) {
	tr := newTracer()
	o := tr.op()
	root := o.begin("op", -1)
	child := o.begin("a", root)
	grand := o.begin("b", child)
	time.Sleep(2 * time.Millisecond)
	o.end(grand)
	o.end(child)
	o.end(root)
	o.commit()
	o2 := tr.op()
	r2 := o2.begin("op", -1)
	o2.end(r2)
	o2.commit()
	lt := tr.layers(0)
	if lt.calls("op") != 2 || lt.calls("a") != 1 || lt.calls("b") != 1 {
		t.Fatalf("calls %+v", lt)
	}
	if lt.self("b") < 2*time.Millisecond {
		t.Errorf("self(b) = %v, want at least the 2ms sleep", lt.self("b"))
	}
	if sum := lt.self("op") + lt.self("a") + lt.self("b"); sum != lt.total("op") {
		t.Errorf("self times sum to %v, want the roots' total %v", sum, lt.total("op"))
	}
}

// TestSpeedRefAllocatesNothing pins the reference kernel's independence of
// the program's heap: a kernel that allocated could run the program's
// garbage collection inside a reference block.
func TestSpeedRefAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, ref.work); n != 0 {
		t.Fatalf("reference kernel allocates %v times per run, want 0", n)
	}
}

// TestSetCommonScalesToReferenceSpeed runs two passes at half the reference
// speed: every scaled time is half the measured one, the unscaled ones stay.
func TestSetCommonScalesToReferenceSpeed(t *testing.T) {
	slow := 2 * refNominal.Seconds()
	times := passTimes{
		setups: []float64{0.2, 0.4},
		cpus:   []float64{3, 5},
		walls:  []float64{4, 6},
		refs:   []float64{slow, slow, slow},
	}
	b := &bench{metrics: map[string]metric{}}
	b.setCommon(times, 8, 80, 16)
	for name, want := range map[string]float64{
		"setup_s": 0.1, "cpu_s": 2, "ops_per_cpu_s": 4, "run.cpu_s": 4, "run.wall_s": 4, "allocs_per_op": 5,
	} {
		if got := b.metrics[name].Value; got < want*(1-1e-9) || got > want*(1+1e-9) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
