package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

// The serve-mix and router-mix workloads drive a closed loop of nproc
// clients, each waiting for its answer before sending the next request,
// against in-process serving nodes on loopback listeners. One pass sends a
// fixed op list in which cache hits, misses and store writes share the run,
// so a gain on one path that costs another shows:
//
//   - 80% hit: by-ID /v1/evaluate over a hot set registered and warmed in
//     set-up (decode, store resolve, response memo);
//   - 15% miss: inline /v1/evaluate of a never-seen strict instance (decode,
//     canonical key, in-flight slot, engine, TPN, cycle ratio, encode);
//   - 5% register: POST /v1/instances of a never-seen instance (a store write
//     that evicts, because set-up fills the store).
//
// router-mix sends the same ops through a cluster.Router in front of two
// nodes; the difference between the two is the cost of the cluster layer.

const (
	opHit = iota
	opMiss
	opRegister
	numOpKinds
)

var opNames = [numOpKinds]string{"hit", "miss", "register"}

const (
	serveOps      = 12000 // ops per pass
	serveHot      = 128   // registered and warmed hot instances
	serveFiller   = 1024  // cold registrations that fill the store in set-up
	serveNodes    = 2     // router-mix cluster size
	serveCheckOps = 400   // router-mix ops re-sent to a direct node for comparison
)

// serveFamily generates every serving instance: 4 stages on 12 processors
// with Table 2's 5-15 time ranges. A strict miss then costs about 0.2 ms of
// solving (0.5 ms at its 99th percentile), so the tail of the mix is set by
// the solver more than by scheduling noise.
var serveFamily = workload.Spec{Stages: 4, Procs: 12, CompLo: 5, CompHi: 15, CommLo: 5, CommHi: 15, MaxPathCount: 2520}

// serveOp is one request of the mix.
type serveOp struct {
	kind  int
	inst  *model.Instance
	model model.CommModel
	body  []byte
}

func (op serveOp) path() string {
	if op.kind == opRegister {
		return "/v1/instances"
	}
	return "/v1/evaluate"
}

// serveInputs is everything a pass sends, generated from the seed alone.
type serveInputs struct {
	hot, filler []*model.Instance
	ops         []serveOp
}

// genServeInputs draws the hot set, the store filler and the op list. Every
// instance is distinct (by content ID), so misses and registrations are
// never-seen by a fresh server.
func genServeInputs(seed int64, nOps, nHot, nFiller int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	fresh := func() (*model.Instance, error) {
		for {
			inst, err := serveFamily.Instance(rng)
			if err != nil {
				return nil, err
			}
			if id := store.ContentID(inst); !seen[id] {
				seen[id] = true
				return inst, nil
			}
		}
	}
	in := &serveInputs{}
	for i := 0; i < nHot+nFiller; i++ {
		inst, err := fresh()
		if err != nil {
			return nil, err
		}
		if i < nFiller {
			in.filler = append(in.filler, inst)
		} else {
			in.hot = append(in.hot, inst)
		}
	}
	models := model.Models()
	for i := 0; i < nOps; i++ {
		var op serveOp
		var req any
		switch r := rng.Intn(100); {
		case r < 80:
			op = serveOp{kind: opHit, inst: in.hot[rng.Intn(nHot)], model: models[rng.Intn(len(models))]}
			req = service.EvaluateRequest{InstanceID: store.ContentID(op.inst), Model: op.model.String()}
		case r < 95:
			inst, err := fresh()
			if err != nil {
				return nil, err
			}
			op = serveOp{kind: opMiss, inst: inst, model: model.Strict}
			req = service.EvaluateRequest{Instance: inst, Model: op.model.String()}
		default:
			inst, err := fresh()
			if err != nil {
				return nil, err
			}
			op = serveOp{kind: opRegister, inst: inst}
			req = service.InstanceRequest{Instance: inst}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		op.body = body
		in.ops = append(in.ops, op)
	}
	return in, nil
}

// resultJSON is the wire form the service answers for a core.Result.
func resultJSON(res core.Result) service.ResultJSON {
	return service.ResultJSON{
		Model:       res.Model.String(),
		Period:      res.Period.String(),
		PeriodFloat: res.Period.Float64(),
		Mct:         res.Mct.String(),
		Throughput:  res.Throughput().String(),
		PathCount:   res.PathCount,
		Method:      string(res.Method),
		HasCritical: res.HasCriticalResource(),
	}
}

// expectKey identifies an expected answer: an instance under a model.
type expectKey struct {
	inst  *model.Instance
	model model.CommModel
}

// expectations computes core.Period for every evaluate op's task, outside
// any timed window. Each period is cross-checked against the unfolded TPN
// solved by Howard's algorithm — another route than the service's (Theorem
// 1 for overlap, Karp for strict) — so a defect in core.Period itself shows
// too.
func expectations(b *bench, in *serveInputs) (map[expectKey]service.ResultJSON, error) {
	out := map[expectKey]service.ResultJSON{}
	cross := &core.Solver{Backend: cycles.BackendHoward}
	for _, op := range in.ops {
		if op.kind == opRegister {
			continue
		}
		k := expectKey{op.inst, op.model}
		if _, ok := out[k]; ok {
			continue
		}
		res, err := core.Period(op.inst, op.model)
		if err != nil {
			return nil, err
		}
		alt, err := cross.PeriodTPN(op.inst, op.model)
		if err != nil {
			return nil, err
		}
		if !alt.Period.Equal(res.Period) {
			// Expect the cross-check's period: every answer carrying the
			// other one then counts as failed.
			b.fail("core.Period %v of a %v task differs from the Howard-solved TPN's %v", res.Period, op.model, alt.Period)
			res.Period = alt.Period
		}
		out[k] = resultJSON(res)
	}
	return out, nil
}

// httpServer is one in-process server on a loopback listener.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // an expired drain still closes the listener
	<-s.done
}

// handlerClock times every request a handler serves, split by the op class
// the client named in the X-Bench-Op header (or by path on nodes behind a
// router, which forwards no client headers). Only traced passes install it.
type handlerClock struct {
	h     http.Handler
	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int64
}

func newHandlerClock(h http.Handler) *handlerClock {
	return &handlerClock{h: h, total: map[string]time.Duration{}, count: map[string]int64{}}
}

func (c *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	c.h.ServeHTTP(w, r)
	d := time.Since(start)
	key := r.Header.Get("X-Bench-Op")
	if key == "" {
		key = r.URL.Path
	}
	c.mu.Lock()
	c.total[key] += d
	c.count[key]++
	c.mu.Unlock()
}

// serving is one pass's system under test: nodes, an optional router, and
// the client that talks to the front. Traced passes wrap every handler in a
// clock.
type serving struct {
	nodes      []*service.Server
	https      []*httpServer
	front      string
	client     *http.Client
	frontClock *handlerClock   // the router, or the node without one
	nodeClocks []*handlerClock // routed: one per node
}

func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: tr}
}

func startServing(b *bench, routed, traced bool) (*serving, error) {
	sv := &serving{client: newClient(b.clients)}
	clock := func(h http.Handler) (http.Handler, *handlerClock) {
		if !traced {
			return h, nil
		}
		c := newHandlerClock(h)
		return c, c
	}
	serve := func(h http.Handler) (string, error) {
		hs, err := startHTTP(h)
		if err != nil {
			sv.stop()
			return "", err
		}
		sv.https = append(sv.https, hs)
		return hs.url, nil
	}
	if !routed {
		node := service.NewServer(service.Options{Workers: b.workers, StoreEntries: serveHot + serveFiller})
		h, c := clock(node.Handler())
		url, err := serve(h)
		if err != nil {
			return nil, err
		}
		sv.nodes, sv.front, sv.frontClock = []*service.Server{node}, url, c
		return sv, nil
	}
	var members []cluster.Node
	for i := 0; i < serveNodes; i++ {
		node := service.NewServer(service.Options{Workers: b.workers, StoreEntries: serveHot + serveFiller})
		h, c := clock(node.Handler())
		url, err := serve(h)
		if err != nil {
			return nil, err
		}
		sv.nodes = append(sv.nodes, node)
		sv.nodeClocks = append(sv.nodeClocks, c)
		members = append(members, cluster.Node{Name: fmt.Sprintf("node%d", i), URL: url})
	}
	// No health probers: the membership is static and nothing fails.
	rt, err := cluster.NewRouter(cluster.Options{Nodes: members})
	if err != nil {
		sv.stop()
		return nil, err
	}
	h, c := clock(rt.Handler())
	if sv.front, err = serve(h); err != nil {
		return nil, err
	}
	sv.frontClock = c
	return sv, nil
}

func (sv *serving) stop() {
	for i := len(sv.https) - 1; i >= 0; i-- {
		sv.https[i].stop()
	}
	sv.client.CloseIdleConnections()
}

// do sends one request to the front and reads the whole answer.
func (sv *serving) do(method, path, class string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, sv.front+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if class != "" {
		req.Header.Set("X-Bench-Op", class)
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// setUp registers the filler, then the hot set, and warms every hot task.
// The store is then full, so every registration of a pass evicts. Filler
// first, and more filler than a pass registers: the CLOCK hand starts at
// slot 0, and its first sweep finds every entry referenced, clears a whole
// lap and evicts the entry it started from. Had that lap ended in the hot
// set, hot entries would be evicted and their by-ID hits would answer 404.
func (sv *serving) setUp(in *serveInputs) error {
	for _, set := range [][]*model.Instance{in.filler, in.hot} {
		for _, inst := range set {
			body, err := json.Marshal(service.InstanceRequest{Instance: inst})
			if err != nil {
				return err
			}
			if st, out, err := sv.do(http.MethodPost, "/v1/instances", "", body); err != nil || st != http.StatusOK {
				return fmt.Errorf("set-up registration: status %d %s: %v", st, out, err)
			}
		}
	}
	for _, inst := range in.hot {
		for _, cm := range model.Models() {
			body, err := json.Marshal(service.EvaluateRequest{InstanceID: store.ContentID(inst), Model: cm.String()})
			if err != nil {
				return err
			}
			if st, out, err := sv.do(http.MethodPost, "/v1/evaluate", "", body); err != nil || st != http.StatusOK {
				return fmt.Errorf("set-up warm-up: status %d %s: %v", st, out, err)
			}
		}
	}
	return nil
}

// opResult is one answered op.
type opResult struct {
	status int
	body   []byte
	lat    time.Duration
	err    error
}

// runOps is the closed loop: client c sends ops c, c+clients, ... each after
// the previous answer arrived.
func (sv *serving) runOps(ops []serveOp, clients int) []opResult {
	res := make([]opResult, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				t := time.Now()
				st, body, err := sv.do(http.MethodPost, ops[i].path(), opNames[ops[i].kind], ops[i].body)
				res[i] = opResult{status: st, body: body, lat: time.Since(t), err: err}
			}
		}(c)
	}
	wg.Wait()
	return res
}

// checkOps verifies every answer of a pass: evaluate answers equal
// core.Period on the same task, registrations answer the content ID.
func checkOps(b *bench, ops []serveOp, res []opResult, want map[expectKey]service.ResultJSON) {
	for i, op := range ops {
		c := b.class(opNames[op.kind])
		c.attempted++
		r := res[i]
		ok := r.err == nil && r.status == http.StatusOK
		if ok && op.kind == opRegister {
			var ir service.InstanceResponse
			ok = json.Unmarshal(r.body, &ir) == nil && ir.ID == store.ContentID(op.inst) && ir.Created
		} else if ok {
			var er service.EvaluateResponse
			ok = json.Unmarshal(r.body, &er) == nil && er.ResultJSON == want[expectKey{op.inst, op.model}]
		}
		if ok {
			c.succeeded++
			continue
		}
		c.failed++
		b.fail("%s op %d: status %d err %v body %.200s", opNames[op.kind], i, r.status, r.err, r.body)
	}
}

// histJSON is one /metrics latency histogram's totals.
type histJSON struct {
	Count int64   `json:"count"`
	SumMs float64 `json:"sumMs"`
}

// hitMiss is a cache block's counters.
type hitMiss struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// nodeMetrics is the part of a node's /metrics the benchmark reads.
type nodeMetrics struct {
	Coalesced int64              `json:"coalesced"`
	Cache     map[string]hitMiss `json:"cache"`
	Store     struct {
		Puts      int64 `json:"puts"`
		Evictions int64 `json:"evictions"`
	} `json:"store"`
	RespMemo  *hitMiss            `json:"respMemo"`
	Latency   map[string]histJSON `json:"latency"`
	QueueWait map[string]histJSON `json:"queueWait"`
}

// routerBlock is the router's own block of a router /metrics answer.
type routerBlock struct {
	Router struct {
		Retries     int64            `json:"retries"`
		Replays     int64            `json:"replays"`
		PerNode     map[string]int64 `json:"perNode"`
		ReplayCache hitMiss          `json:"replayCache"`
		RespMemo    *hitMiss         `json:"respMemo"`
	} `json:"router"`
}

// sub returns the counter deltas m - prev.
func (m nodeMetrics) sub(prev nodeMetrics) nodeMetrics {
	d := m
	d.Coalesced -= prev.Coalesced
	d.Store.Puts -= prev.Store.Puts
	d.Store.Evictions -= prev.Store.Evictions
	d.Cache = map[string]hitMiss{}
	for k, v := range m.Cache {
		p := prev.Cache[k]
		d.Cache[k] = hitMiss{v.Hits - p.Hits, v.Misses - p.Misses}
	}
	if m.RespMemo != nil {
		rm := *m.RespMemo
		if prev.RespMemo != nil {
			rm = hitMiss{rm.Hits - prev.RespMemo.Hits, rm.Misses - prev.RespMemo.Misses}
		}
		d.RespMemo = &rm
	}
	subHists := func(cur, old map[string]histJSON) map[string]histJSON {
		out := map[string]histJSON{}
		for k, v := range cur {
			p := old[k]
			out[k] = histJSON{v.Count - p.Count, v.SumMs - p.SumMs}
		}
		return out
	}
	d.Latency = subHists(m.Latency, prev.Latency)
	d.QueueWait = subHists(m.QueueWait, prev.QueueWait)
	return d
}

// sub returns the router counter deltas r - prev.
func (r routerBlock) sub(prev routerBlock) routerBlock {
	d := r
	d.Router.Retries -= prev.Router.Retries
	d.Router.Replays -= prev.Router.Replays
	d.Router.PerNode = map[string]int64{}
	for k, v := range r.Router.PerNode {
		d.Router.PerNode[k] = v - prev.Router.PerNode[k]
	}
	d.Router.ReplayCache = hitMiss{r.Router.ReplayCache.Hits - prev.Router.ReplayCache.Hits,
		r.Router.ReplayCache.Misses - prev.Router.ReplayCache.Misses}
	if r.Router.RespMemo != nil && prev.Router.RespMemo != nil {
		d.Router.RespMemo = &hitMiss{r.Router.RespMemo.Hits - prev.Router.RespMemo.Hits,
			r.Router.RespMemo.Misses - prev.Router.RespMemo.Misses}
	}
	return d
}

// add sums node deltas across the cluster.
func (m *nodeMetrics) add(o nodeMetrics) {
	m.Coalesced += o.Coalesced
	m.Store.Puts += o.Store.Puts
	m.Store.Evictions += o.Store.Evictions
	if m.Cache == nil {
		m.Cache = map[string]hitMiss{}
	}
	for k, v := range o.Cache {
		c := m.Cache[k]
		m.Cache[k] = hitMiss{c.Hits + v.Hits, c.Misses + v.Misses}
	}
	if o.RespMemo != nil {
		if m.RespMemo == nil {
			m.RespMemo = &hitMiss{}
		}
		m.RespMemo.Hits += o.RespMemo.Hits
		m.RespMemo.Misses += o.RespMemo.Misses
	}
	addHists := func(dst *map[string]histJSON, src map[string]histJSON) {
		if *dst == nil {
			*dst = map[string]histJSON{}
		}
		for k, v := range src {
			c := (*dst)[k]
			(*dst)[k] = histJSON{c.Count + v.Count, c.SumMs + v.SumMs}
		}
	}
	addHists(&m.Latency, o.Latency)
	addHists(&m.QueueWait, o.QueueWait)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads every node's /metrics and, behind a router, the router's.
func (sv *serving) scrape(routed bool) ([]nodeMetrics, routerBlock, error) {
	var rb routerBlock
	nm := make([]nodeMetrics, len(sv.nodes))
	for i := range sv.nodes {
		if err := getJSON(sv.client, sv.https[i].url+"/metrics", &nm[i]); err != nil {
			return nil, rb, err
		}
	}
	if routed {
		if err := getJSON(sv.client, sv.front+"/metrics", &rb); err != nil {
			return nil, rb, err
		}
	}
	return nm, rb, nil
}

// servePass is what one pass measured.
type servePass struct {
	setup, work time.Duration // CPU times
	wall        time.Duration
	results     []opResult
	node        nodeMetrics // summed across nodes
	router      routerBlock
	sv          *serving // its handler clocks, when traced
}

func runServePass(b *bench, in *serveInputs, routed, traced bool, allocs *uint64) (*servePass, error) {
	c0 := cpuTime()
	sv, err := startServing(b, routed, traced)
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	if err := sv.setUp(in); err != nil {
		return nil, err
	}
	p := &servePass{setup: cpuTime() - c0, sv: sv}
	nm0, rb0, err := sv.scrape(routed)
	if err != nil {
		return nil, err
	}
	settle()
	m0 := mallocs()
	c1 := cpuTime()
	start := time.Now()
	p.results = sv.runOps(in.ops, b.clients)
	p.wall, p.work = time.Since(start), cpuTime()-c1
	*allocs += mallocs() - m0
	nm1, rb1, err := sv.scrape(routed)
	if err != nil {
		return nil, err
	}
	for i := range nm1 {
		p.node.add(nm1[i].sub(nm0[i]))
	}
	p.router = rb1.sub(rb0)
	return p, nil
}

func runServe(b *bench, routed bool) error {
	in, err := genServeInputs(b.seed, serveOps, serveHot, serveFiller)
	if err != nil {
		return err
	}
	want, err := expectations(b, in)
	if err != nil {
		return err
	}
	var times passTimes
	var tracedWalls []float64
	var lat []latencies
	var tracedLat [numOpKinds]latencies
	var allocs uint64
	var ops int64
	var first *servePass
	var puts, evictions []int64
	var tracedPasses []*servePass
	budget := b.budget
	if b.trace {
		budget /= 2 // the other half runs traced passes and the replay
	}
	measure := func(traced bool) func(int) (time.Duration, error) {
		return func(int) (time.Duration, error) {
			if !traced {
				times.start()
			}
			p, err := runServePass(b, in, routed, traced, &allocs)
			if err != nil {
				return 0, err
			}
			if first == nil {
				first = p
			}
			checkOps(b, in.ops, p.results, want)
			puts = append(puts, p.node.Store.Puts)
			evictions = append(evictions, p.node.Store.Evictions)
			if traced {
				tracedWalls = append(tracedWalls, p.wall.Seconds())
				tracedPasses = append(tracedPasses, p)
				for i, r := range p.results {
					tracedLat[in.ops[i].kind].add(r.lat)
				}
				return p.wall, nil
			}
			times.add(p.setup, p.work, p.wall)
			var l latencies
			for _, r := range p.results {
				l.add(r.lat)
			}
			lat = append(lat, l)
			ops += int64(len(in.ops))
			return p.wall, nil
		}
	}
	if err := passLoop(budget, 3, measure(false)); err != nil {
		return err
	}
	b.setCommon(times, int64(len(in.ops)), allocs, ops)
	b.setLatency(lat)
	if routed {
		if err := compareDirect(b, in, first); err != nil {
			return err
		}
	}
	if b.trace {
		if err := passLoop(budget/2, 2, measure(true)); err != nil {
			return err
		}
		reportServeLayers(b, routed, tracedPasses, tracedLat)
		b.set("trace.overhead", median(tracedWalls)/median(times.walls), "ratio")
		if err := replayServe(b, in, want); err != nil {
			return err
		}
	}
	// Store writes are a fixed list per pass, so their counts must repeat.
	for i := range puts {
		if puts[i] != puts[0] || evictions[i] != evictions[0] {
			b.fail("%s: store puts/evictions drifted between passes: %v / %v", b.workload, puts, evictions)
			break
		}
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// reportServeLayers reports the serving-path layer metrics of the traced
// passes: client latency per op class, /metrics deltas, and the handler
// clocks around the front (node or router) and every node.
func reportServeLayers(b *bench, routed bool, passes []*servePass, lat [numOpKinds]latencies) {
	b.set("client.hit_p50_ms", quantile(lat[opHit], 0.5), "ms")
	b.set("client.miss_p50_ms", quantile(lat[opMiss], 0.5), "ms")
	b.set("client.register_p50_ms", quantile(lat[opRegister], 0.5), "ms")

	var node nodeMetrics
	var retries, replays int64
	perNode := map[string]int64{}
	var replayCache, routerMemo hitMiss
	frontTime := map[string]time.Duration{}
	frontCount := map[string]int64{}
	var nodeTime time.Duration
	var ops int64
	for _, p := range passes {
		ops += int64(len(p.results))
		node.add(p.node)
		retries += p.router.Router.Retries
		replays += p.router.Router.Replays
		for k, v := range p.router.Router.PerNode {
			perNode[k] += v
		}
		replayCache.Hits += p.router.Router.ReplayCache.Hits
		replayCache.Misses += p.router.Router.ReplayCache.Misses
		if m := p.router.Router.RespMemo; m != nil {
			routerMemo.Hits += m.Hits
			routerMemo.Misses += m.Misses
		}
		front := p.sv.frontClock
		for k, v := range front.total {
			frontTime[k] += v
			frontCount[k] += front.count[k]
		}
		for _, c := range p.sv.nodeClocks {
			for _, v := range c.total {
				nodeTime += v
			}
		}
	}
	ev := node.Latency["evaluate/auto"]
	if ev.Count > 0 {
		b.set("service.handler_ms", ev.SumMs/float64(ev.Count), "ms")
	}
	if qw := node.QueueWait["evaluate"]; qw.Count > 0 {
		b.set("service.queue_wait_ms", qw.SumMs/float64(qw.Count), "ms")
	}
	if m := node.RespMemo; m != nil {
		b.set("service.respmemo_hit_ratio", ratio(m.Hits, m.Hits+m.Misses), "ratio")
	}
	b.set("service.coalesced_per_kop", 1000*ratio(node.Coalesced, ops), "count")
	c := node.Cache["auto"]
	b.set("engine.memo_hit_ratio", ratio(c.Hits, c.Hits+c.Misses), "ratio")
	b.set("store.evictions_per_kop", 1000*ratio(node.Store.Evictions, ops), "count")

	evalLat := append(append(latencies(nil), lat[opHit]...), lat[opMiss]...)
	evalFront := frontTime[opNames[opHit]] + frontTime[opNames[opMiss]]
	evalCount := frontCount[opNames[opHit]] + frontCount[opNames[opMiss]]
	if evalCount > 0 {
		b.set("net.overhead_ms", mean(evalLat)-ms(evalFront)/float64(evalCount), "ms")
	}
	if !routed {
		return
	}
	// Every miss and registration is forwarded; hits are answered by the
	// router's response memo after set-up.
	fwd := frontCount[opNames[opMiss]] + frontCount[opNames[opRegister]]
	fwdTime := frontTime[opNames[opMiss]] + frontTime[opNames[opRegister]]
	if fwd > 0 {
		b.set("cluster.self_ms", ms(fwdTime-nodeTime)/float64(fwd), "ms")
	}
	b.set("cluster.respmemo_hit_ratio", ratio(routerMemo.Hits, routerMemo.Hits+routerMemo.Misses), "ratio")
	b.set("cluster.replaycache_hit_ratio", ratio(replayCache.Hits, replayCache.Hits+replayCache.Misses), "ratio")
	var maxN, sumN int64
	for _, v := range perNode {
		sumN += v
		if v > maxN {
			maxN = v
		}
	}
	if len(perNode) > 0 && sumN > 0 {
		b.set("cluster.skew", float64(maxN)*float64(len(perNode))/float64(sumN), "ratio")
	}
	b.set("cluster.retries", float64(retries), "count")
	b.set("cluster.replays", float64(replays), "count")
}

// compareDirect re-sends the first ops of a router-mix pass to one direct
// node set up the same way and checks that both answer the same.
func compareDirect(b *bench, in *serveInputs, routedPass *servePass) error {
	sv, err := startServing(b, false, false)
	if err != nil {
		return err
	}
	defer sv.stop()
	if err := sv.setUp(in); err != nil {
		return err
	}
	n := serveCheckOps
	if n > len(in.ops) {
		n = len(in.ops)
	}
	direct := sv.runOps(in.ops[:n], 1)
	c := b.class("vs-direct")
	for i := 0; i < n; i++ {
		c.attempted++
		if sameAnswer(in.ops[i], routedPass.results[i], direct[i]) {
			c.succeeded++
			continue
		}
		c.failed++
		b.fail("router-mix op %d answers %.200s, a direct node %.200s", i, routedPass.results[i].body, direct[i].body)
	}
	return nil
}

// sameAnswer compares two answers to one op, ignoring the scheduling-only
// "coalesced" marker.
func sameAnswer(op serveOp, x, y opResult) bool {
	if x.err != nil || y.err != nil || x.status != y.status {
		return false
	}
	if op.kind == opRegister {
		var a, b service.InstanceResponse
		return json.Unmarshal(x.body, &a) == nil && json.Unmarshal(y.body, &b) == nil && a.ID == b.ID
	}
	var a, b service.EvaluateResponse
	return json.Unmarshal(x.body, &a) == nil && json.Unmarshal(y.body, &b) == nil &&
		a.ResultJSON == b.ResultJSON && a.Backend == b.Backend
}

// serveLayers are the spans whose self time the serving replay sums.
var serveLayers = []string{"service.decode", "store.resolve", "store.put", "engine.key", "engine.eval_miss", "service.encode"}

// replayServe sends the op list through the public functions of the
// layers a node runs per request — JSON decode, store resolve or put,
// canonical key, keyed engine evaluation, JSON encode — on a
// benchmark-owned store and engine, twice: the store's write counts must
// repeat exactly.
func replayServe(b *bench, in *serveInputs, want map[expectKey]service.ResultJSON) error {
	var counts [2]store.Metrics
	for rep := 0; rep < 2; rep++ {
		st := store.New(serveHot + serveFiller)
		for _, set := range [][]*model.Instance{in.filler, in.hot} {
			for _, inst := range set {
				if _, _, err := st.Put(inst); err != nil {
					return err
				}
			}
		}
		base := st.Metrics()
		eng := engine.New(engine.Options{Workers: 1})
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		from := b.tracer.mark()
		start := time.Now()
		for i, op := range in.ops {
			o := b.tracer.op()
			root := o.begin("op", -1)
			if err := replayOp(o, root, op, st, eng, enc, &buf, want); err != nil {
				b.fail("serving replay op %d (%s): %v", i, opNames[op.kind], err)
			}
			o.end(root)
			o.commit()
		}
		wall := time.Since(start)
		m := st.Metrics()
		m.Puts -= base.Puts
		m.Evictions -= base.Evictions
		counts[rep] = store.Metrics{Puts: m.Puts, Evictions: m.Evictions}
		if rep == 0 {
			continue
		}
		lt := b.tracer.layers(from)
		perCall := func(name string) float64 {
			if n := lt.calls(name); n > 0 {
				return float64(lt.self(name)) / float64(time.Microsecond) / float64(n)
			}
			return 0
		}
		b.set("service.decode_us", perCall("service.decode"), "us")
		b.set("engine.key_us", perCall("engine.key"), "us")
		b.set("store.put_us", perCall("store.put"), "us")
		b.set("store.resolve_us", perCall("store.resolve"), "us")
		b.set("engine.eval_miss_us", perCall("engine.eval_miss"), "us")
		b.set("service.encode_us", perCall("service.encode"), "us")
		var covered time.Duration
		for _, name := range serveLayers {
			covered += lt.self(name)
		}
		b.set("trace.coverage", float64(covered)/float64(wall), "ratio")
	}
	if counts[0] != counts[1] {
		b.fail("%s: replay store counts drifted: %+v vs %+v", b.workload, counts[0], counts[1])
	}
	return nil
}

// replayOp runs one op's request through the layers, one span per call.
func replayOp(o *opTrace, root int32, op serveOp, st *store.Store, eng *engine.Engine, enc *json.Encoder, buf *bytes.Buffer, want map[expectKey]service.ResultJSON) error {
	if op.kind == opRegister {
		var req service.InstanceRequest
		sp := o.begin("service.decode", root)
		err := json.Unmarshal(op.body, &req)
		o.end(sp)
		if err != nil {
			return err
		}
		sp = o.begin("store.put", root)
		_, _, err = st.Put(req.Instance)
		o.end(sp)
		return err
	}
	var req service.EvaluateRequest
	sp := o.begin("service.decode", root)
	err := json.Unmarshal(op.body, &req)
	o.end(sp)
	if err != nil {
		return err
	}
	cm, err := model.Parse(req.Model)
	if err != nil {
		return err
	}
	if op.kind == opHit {
		sp = o.begin("store.resolve", root)
		ent, ok := st.Resolve(req.InstanceID)
		o.end(sp)
		if !ok {
			return fmt.Errorf("hot instance %s not resolved", req.InstanceID)
		}
		ent.Release()
		return nil
	}
	task := engine.Task{Inst: req.Instance, Model: cm}
	sp = o.begin("engine.key", root)
	h, key := engine.CanonicalKey(task)
	o.end(sp)
	sp = o.begin("engine.eval_miss", root)
	res, err := eng.EvaluateKeyed(h, key, task)
	o.end(sp)
	if err != nil {
		return err
	}
	rj := resultJSON(res)
	sp = o.begin("service.encode", root)
	buf.Reset()
	err = enc.Encode(service.EvaluateResponse{ResultJSON: rj, Backend: eng.Backend().String()})
	o.end(sp)
	if err != nil {
		return err
	}
	if rj != want[expectKey{op.inst, op.model}] {
		return fmt.Errorf("replayed period %s differs from core.Period", rj.Period)
	}
	return nil
}
