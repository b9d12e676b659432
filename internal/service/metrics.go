package service

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the server's observability state, exposed on /metrics as one
// JSON object. The counters use expvar types for their atomic semantics and
// JSON rendering, but are deliberately NOT published to expvar's global
// registry: a process may host several Servers (tests do), and global
// publication panics on the second.
type metrics struct {
	start     time.Time
	requests  *expvar.Map // per-endpoint request counts
	errors    *expvar.Map // per-endpoint error counts
	inFlight  expvar.Int  // solve requests currently admitted
	coalesced expvar.Int  // /v1/evaluate answers shared from another caller's in-flight computation

	mu    sync.Mutex
	hists map[string]*latencyHist // endpoint -> total handler time
	waits map[string]*latencyHist // endpoint -> in-flight queue wait
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		requests: new(expvar.Map).Init(),
		errors:   new(expvar.Map).Init(),
		hists:    make(map[string]*latencyHist),
		waits:    make(map[string]*latencyHist),
	}
}

// observe records one answered request's total handler time (parse + queue
// wait + solve — the same measure whether the answer came from the response
// memo or a fresh solve) in the endpoint's histogram.
func (m *metrics) observe(endpoint string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.hists[endpoint]
	if !ok {
		h = newLatencyHist()
		m.hists[endpoint] = h
	}
	m.mu.Unlock()
	h.record(d)
}

// observeWait records the time one request spent queued for an in-flight
// slot (including waits that end in a 503, which are exactly the ones worth
// seeing).
func (m *metrics) observeWait(endpoint string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.waits[endpoint]
	if !ok {
		h = newLatencyHist()
		m.waits[endpoint] = h
	}
	m.mu.Unlock()
	h.record(d)
}

// latencyHist is a fixed-bucket log-scale latency histogram (bounds in
// histBounds, last bucket unbounded). Lock-free recording; rendered as
// cumulative-free per-bucket counts plus count/sum so dashboards can derive
// rates and means.
type latencyHist struct {
	counts []atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// histBounds are the bucket upper bounds. Solves range from microseconds
// (memo hits) to many seconds (strict-model searches), so the bounds spread
// log-uniformly across that range.
var histBounds = []time.Duration{
	100 * time.Microsecond,
	400 * time.Microsecond,
	1600 * time.Microsecond,
	6400 * time.Microsecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	400 * time.Millisecond,
	1600 * time.Millisecond,
	6400 * time.Millisecond,
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]atomic.Int64, len(histBounds)+1)}
}

func (h *latencyHist) record(d time.Duration) {
	i := sort.Search(len(histBounds), func(i int) bool { return d <= histBounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	for {
		old := h.maxNs.Load()
		if d.Nanoseconds() <= old || h.maxNs.CompareAndSwap(old, d.Nanoseconds()) {
			return
		}
	}
}

// String renders the histogram as JSON (expvar.Var contract).
func (h *latencyHist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sumMs":%.3f,"maxMs":%.3f,"buckets":{`,
		h.count.Load(), float64(h.sumNs.Load())/1e6, float64(h.maxNs.Load())/1e6)
	for i := range h.counts {
		if i > 0 {
			b.WriteByte(',')
		}
		label := "+Inf"
		if i < len(histBounds) {
			label = fmt.Sprintf("<=%s", histBounds[i])
		}
		fmt.Fprintf(&b, "%q:%d", label, h.counts[i].Load())
	}
	b.WriteString("}}")
	return b.String()
}

// handleMetrics serves the full metrics object: request/error counters,
// in-flight gauge, the engine's memo-cache counters (hits, misses,
// evictions, residency vs. capacity — the numbers that prove the bounded
// cache holds), and the per-endpoint latency histograms. The cache object
// and the latency keys ("<endpoint>/auto") carry the engine's label, the
// shape clients of /metrics (perfbench among them) parse.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, "metrics", http.StatusMethodNotAllowed, "metrics requires GET")
		return
	}
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "\"uptimeSeconds\": %.1f,\n", time.Since(s.met.start).Seconds())
	fmt.Fprintf(&b, "\"inFlight\": %s,\n", s.met.inFlight.String())
	fmt.Fprintf(&b, "\"coalesced\": %s,\n", s.met.coalesced.String())
	fmt.Fprintf(&b, "\"requests\": %s,\n", s.met.requests.String())
	fmt.Fprintf(&b, "\"errors\": %s,\n", s.met.errors.String())
	cm := s.eng.CacheMetrics()
	fmt.Fprintf(&b, "\"cache\": {%q: {\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\"capacity\":%d}},\n",
		EngineLabel, cm.Hits, cm.Misses, cm.Evictions, cm.Entries, cm.Capacity)
	sm := s.store.Metrics()
	fmt.Fprintf(&b, "\"store\": {\"puts\":%d,\"dedups\":%d,\"resolves\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\"pinned\":%d,\"capacity\":%d},\n",
		sm.Puts, sm.Dedups, sm.Resolves, sm.Misses, sm.Evictions, sm.Entries, sm.Pinned, sm.Capacity)
	jm := s.jobs.Metrics()
	fmt.Fprintf(&b, "\"jobs\": {\"submitted\":%d,\"done\":%d,\"failed\":%d,\"canceled\":%d,\"rejected\":%d,\"evictions\":%d,\"active\":%d,\"terminal\":%d,\"activeCapacity\":%d,\"terminalCapacity\":%d},\n",
		jm.Submitted, jm.Done, jm.Failed, jm.Canceled, jm.Rejected, jm.Evictions, jm.Active, jm.Terminal, jm.ActiveCapacity, jm.TerminalCapacity)
	b.WriteString("\"respMemo\": ")
	if s.resp != nil {
		rm := s.resp.Stats()
		fmt.Fprintf(&b, "{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\"capacity\":%d}",
			rm.Hits, rm.Misses, rm.Evictions, rm.Entries, rm.Capacity)
	} else {
		b.WriteString("null")
	}
	s.met.mu.Lock()
	b.WriteString(",\n\"latency\": {")
	writeHists(&b, s.met.hists, "/"+EngineLabel)
	b.WriteString("},\n\"queueWait\": {")
	writeHists(&b, s.met.waits, "")
	s.met.mu.Unlock()
	b.WriteString("}\n}\n")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(b.String()))
}

// writeHists renders a histogram map as sorted JSON members, each key
// followed by suffix; the caller holds the metrics mutex and writes the
// surrounding braces.
func writeHists(b *strings.Builder, hists map[string]*latencyHist, suffix string) {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%q: %s", k+suffix, hists[k].String())
	}
}

// HealthzResponse is the /healthz body: liveness plus the load numbers a
// balancer or the cluster router's eject/rejoin prober reads. Typed (rather
// than an ad-hoc map) so the router decodes node health without guessing at
// key names.
type HealthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	InFlight      int64   `json:"inFlight"`
	Workers       int     `json:"workers"`
	MaxInFlight   int     `json:"maxInFlight"`
}

// handleHealthz reports liveness plus the load numbers a balancer wants.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, "healthz", http.StatusMethodNotAllowed, "healthz requires GET")
		return
	}
	WriteJSON(w, http.StatusOK, HealthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		InFlight:      s.met.inFlight.Value(),
		Workers:       s.opts.Workers,
		MaxInFlight:   s.opts.MaxInFlight,
	})
}
