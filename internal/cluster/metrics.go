package cluster

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// routerMetrics is the router's own observability state — what the cluster
// adds on top of the nodes: failover retries, registration replays,
// eject/rejoin transitions and the per-node forwarding distribution the
// loadgen's skew report reads. Like the service's metrics, the expvar
// types are used for atomicity and JSON rendering but never published
// globally (tests host several routers per process).
type routerMetrics struct {
	start    time.Time
	requests *expvar.Map // per-endpoint request counts
	errors   *expvar.Map // per-endpoint error counts
	retries  expvar.Int  // failover hops past a key's home node
	replays  expvar.Int  // 404s healed by re-registering from the replay cache
	ejects   expvar.Int  // nodes removed from the ring by the health prober
	rejoins  expvar.Int  // nodes restored to the ring
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		start:    time.Now(),
		requests: new(expvar.Map).Init(),
		errors:   new(expvar.Map).Init(),
	}
}

// HealthzNode is one member's health as /healthz reports it.
type HealthzNode struct {
	Name   string `json:"name"`
	URL    string `json:"url"`
	Weight int    `json:"weight"`
	// Alive is ring membership: false means the prober has ejected the node
	// and its keys are being served by ring successors.
	Alive bool `json:"alive"`
	// ConsecutiveFailures is the current failure streak (zero when healthy).
	ConsecutiveFailures int `json:"consecutiveFailures,omitempty"`
}

// HealthzResponse is the router's /healthz body: overall status plus the
// ring membership, typed so loadgen and tests decode it without guessing
// at key names (the same courtesy service.HealthzResponse extends).
type HealthzResponse struct {
	// Status is "ok" (all nodes in the ring), "degraded" (some ejected) or
	// "down" (ring empty — every request answers 503).
	Status        string        `json:"status"`
	UptimeSeconds float64       `json:"uptimeSeconds"`
	Vnodes        int           `json:"vnodes"`
	Nodes         []HealthzNode `json:"nodes"`
	// RingNodes is the current ring membership (sorted) — the names requests
	// actually route to right now.
	RingNodes []string `json:"ringNodes"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.fail(w, "healthz", http.StatusMethodNotAllowed, "healthz requires GET")
		return
	}
	rt.mu.RLock()
	resp := HealthzResponse{
		UptimeSeconds: time.Since(rt.met.start).Seconds(),
		Vnodes:        rt.ring.Vnodes(),
		RingNodes:     rt.ring.Nodes(),
	}
	alive := 0
	for _, ns := range rt.nodes {
		if ns.alive {
			alive++
		}
		resp.Nodes = append(resp.Nodes, HealthzNode{
			Name:                ns.name,
			URL:                 ns.base,
			Weight:              ns.weight,
			Alive:               ns.alive,
			ConsecutiveFailures: ns.consecFails,
		})
	}
	rt.mu.RUnlock()
	sort.Slice(resp.Nodes, func(i, j int) bool { return resp.Nodes[i].Name < resp.Nodes[j].Name })
	switch {
	case alive == len(resp.Nodes):
		resp.Status = "ok"
	case alive > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "down"
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the cluster-wide metrics object: the router's own
// counters under "router" (retries, replays, eject/rejoin transitions,
// per-node forwarding counts, both cache snapshots) and every node's raw
// /metrics body under "nodes" — scraped concurrently, null for a node that
// did not answer — so one scrape sees the whole cluster.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.fail(w, "metrics", http.StatusMethodNotAllowed, "metrics requires GET")
		return
	}
	names := make([]string, 0, len(rt.nodes))
	for name := range rt.nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	// Scrape every node in parallel on a short leash: an ejected node must
	// not stall the cluster scrape for the full request timeout.
	scrapeTimeout := rt.opts.RequestTimeout
	if scrapeTimeout > 5*time.Second {
		scrapeTimeout = 5 * time.Second
	}
	bodies := make([][]byte, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, ns *nodeState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ns.base+"/metrics", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				drain(resp)
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return
			}
			bodies[i] = body
		}(i, rt.nodes[name])
	}
	wg.Wait()

	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "\"uptimeSeconds\": %.1f,\n", time.Since(rt.met.start).Seconds())
	b.WriteString("\"router\": {\n")
	fmt.Fprintf(&b, "\"requests\": %s,\n", rt.met.requests.String())
	fmt.Fprintf(&b, "\"errors\": %s,\n", rt.met.errors.String())
	fmt.Fprintf(&b, "\"retries\": %s,\n", rt.met.retries.String())
	fmt.Fprintf(&b, "\"replays\": %s,\n", rt.met.replays.String())
	fmt.Fprintf(&b, "\"ejects\": %s,\n", rt.met.ejects.String())
	fmt.Fprintf(&b, "\"rejoins\": %s,\n", rt.met.rejoins.String())
	b.WriteString("\"perNode\": {")
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", name, rt.nodes[name].proxied.Load())
	}
	b.WriteString("},\n")
	rm := rt.replay.Stats()
	fmt.Fprintf(&b, "\"replayCache\": {\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\"capacity\":%d},\n",
		rm.Hits, rm.Misses, rm.Evictions, rm.Entries, rm.Capacity)
	b.WriteString("\"respMemo\": ")
	if rt.resp != nil {
		mm := rt.resp.Stats()
		fmt.Fprintf(&b, "{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\"capacity\":%d}",
			mm.Hits, mm.Misses, mm.Evictions, mm.Entries, mm.Capacity)
	} else {
		b.WriteString("null")
	}
	b.WriteString("\n},\n")
	b.WriteString("\"nodes\": {")
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n%q: ", name)
		if bodies[i] == nil {
			b.WriteString("null")
		} else {
			b.Write(bodies[i])
		}
	}
	b.WriteString("}\n}\n")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(b.String()))
}
