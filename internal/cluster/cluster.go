// Package cluster is the scale-out layer of the serving stack: a
// consistent-hash router that fronts N serve nodes (internal/service) and
// presents the same /v1/* surface as a single node.
//
// Sharding discipline:
//
//   - Home nodes. Every instance routes by its content ID (store.ContentID —
//     the SHA-256 of the canonical serialization), hashed onto a ring of
//     virtual nodes (internal/ring). A by-ID request and the inline form of
//     the same instance hash identically, so each instance has one home node
//     and that node's memo caches see every repeat — the per-process caches
//     compose into an effectively distributed cache with near-perfect
//     affinity.
//
//   - Deterministic scatter/gather. /v1/batch splits by per-task home node
//     and merges outcomes back in submission order; /v1/sweep sends every
//     node the full (seed, pairs) request plus the pair indices it is home
//     to (the node draws the whole rng population but solves only its
//     share). Merged responses are encoded by the same path the service
//     uses, so a cluster answer is byte-identical to a single node's on the
//     deterministic fields.
//
//   - Eject/rejoin. A prober hits every node's /healthz; EjectAfter
//     consecutive failures remove it from the ring (its keys flow to ring
//     successors — and only its keys, the consistent-hashing guarantee),
//     RejoinAfter consecutive successes restore it. Transport errors during
//     proxying count as probe failures, so a killed node is ejected at
//     request speed, not just at probe cadence.
//
//   - Replay on miss. The router keeps a bounded cache of registration
//     bodies (POST /v1/instances passing through it). When a by-ID request
//     lands on a node that does not hold the instance — a rejoined node
//     with a cold store, or a successor serving an ejected node's keys —
//     the router transparently re-registers from the cache and retries, so
//     failover never surfaces a spurious 404.
//
//   - Response memo. Repeat /v1/evaluate requests (matched on exact body
//     bytes) are served from a bounded router-side memo of response bytes —
//     no node round trip at all. Responses marked "coalesced" are never
//     memoized, mirroring the service's own response-memo rule.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/service"
)

// Node names one serve process the router shards across.
type Node struct {
	// Name is the stable ring identity (defaults to URL). Ownership depends
	// on the name set, so keep names stable across router restarts.
	Name string
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080".
	URL string
	// Weight scales the node's key share (<= 0 means 1).
	Weight int
}

// Options configures a Router. Only Nodes is required.
type Options struct {
	// Nodes is the initial membership (at least one).
	Nodes []Node
	// Vnodes is the ring's virtual-node count per weight unit
	// (0 = ring.DefaultVnodes).
	Vnodes int
	// ProbeInterval is the health-check cadence per node (0 = 500 ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = ProbeInterval).
	ProbeTimeout time.Duration
	// EjectAfter ejects a node from the ring after this many consecutive
	// failures — probe failures and proxy transport errors both count
	// (0 = 3).
	EjectAfter int
	// RejoinAfter restores an ejected node after this many consecutive
	// probe successes (0 = 2).
	RejoinAfter int
	// Retries is the per-request failover budget: after the home node, up to
	// this many ring successors are tried on transport errors and 502/503/504
	// answers (0 = 2; negative disables failover).
	Retries int
	// RequestTimeout bounds each proxied attempt (0 = 60 s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// ReplayEntries bounds the registration-body cache behind replay-on-miss
	// (0 = 4096).
	ReplayEntries int
	// RespMemoEntries bounds the router-side response memo for repeat
	// /v1/evaluate bodies (0 = 8192, negative disables).
	RespMemoEntries int
}

func (o *Options) defaults() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.RejoinAfter <= 0 {
		o.RejoinAfter = 2
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.ReplayEntries <= 0 {
		o.ReplayEntries = 4096
	}
}

// nodeState is one member's health book-keeping. The mutable fields are
// guarded by Router.mu — the same lock that guards the ring, so a node's
// aliveness and its ring membership can never disagree.
type nodeState struct {
	name   string
	base   string // URL without trailing slash
	weight int

	alive       bool
	consecFails int
	consecOKs   int

	proxied atomic.Int64 // responses obtained from this node (skew accounting)
	workers atomic.Int64 // engine pool size from the last healthy probe; 0 until one answers
}

// Router is the consistent-hash front end. Create with NewRouter, mount
// Handler, and call Start to run the health probers.
type Router struct {
	opts   Options
	mux    *http.ServeMux
	client *http.Client

	mu    sync.RWMutex
	ring  *ring.Ring
	nodes map[string]*nodeState

	met    *routerMetrics
	replay *clock.Cache[string, []byte] // content ID -> registration body
	resp   *clock.Cache[string, []byte] // evaluate request body -> response body; nil when disabled
}

// NewRouter validates the membership and builds the routing table. Every
// node starts alive; Start launches the probers that maintain that.
func NewRouter(opts Options) (*Router, error) {
	opts.defaults()
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	rt := &Router{
		opts:   opts,
		mux:    http.NewServeMux(),
		ring:   ring.New(opts.Vnodes),
		nodes:  make(map[string]*nodeState, len(opts.Nodes)),
		met:    newRouterMetrics(),
		replay: clock.New[string, []byte](opts.ReplayEntries),
	}
	if opts.RespMemoEntries >= 0 {
		n := opts.RespMemoEntries
		if n == 0 {
			n = 8192
		}
		rt.resp = clock.New[string, []byte](n)
	}
	for _, n := range opts.Nodes {
		name := n.Name
		if name == "" {
			name = n.URL
		}
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: node %q has no URL", name)
		}
		weight := n.Weight
		if weight <= 0 {
			weight = 1
		}
		if _, dup := rt.nodes[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		if err := rt.ring.Add(name, weight); err != nil {
			return nil, err
		}
		rt.nodes[name] = &nodeState{
			name:   name,
			base:   trimSlash(n.URL),
			weight: weight,
			alive:  true,
		}
	}
	// One shared keep-alive transport: a router in front of a hit-dominated
	// workload forwards thousands of small requests per second per node, and
	// the default 2-idle-connections-per-host limit would re-dial TCP on
	// most of them (the same lesson cmd/loadgen's client learned).
	tr := http.DefaultTransport.(*http.Transport).Clone()
	perHost := 4 * runtime.GOMAXPROCS(0)
	if perHost < 16 {
		perHost = 16
	}
	tr.MaxIdleConnsPerHost = perHost
	if tr.MaxIdleConns < perHost*len(opts.Nodes) {
		tr.MaxIdleConns = perHost * len(opts.Nodes)
	}
	rt.client = &http.Client{Transport: tr}

	rt.mux.HandleFunc("/v1/evaluate", rt.handleEvaluate)
	rt.mux.HandleFunc("/v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("/v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("/v1/search", rt.handleSearch)
	rt.mux.HandleFunc("/v1/jobs", rt.handleJobs)
	rt.mux.HandleFunc("/v1/jobs/", rt.handleJobByID)
	rt.mux.HandleFunc("/v1/instances", rt.handleInstancePost)
	rt.mux.HandleFunc("/v1/instances/", rt.handleInstanceGet)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

func trimSlash(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// Handler returns the root handler (all routes).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start launches one health prober per node; they stop when ctx is
// canceled. Safe to skip in tests that want a static ring.
func (rt *Router) Start(ctx context.Context) {
	for _, ns := range rt.nodes {
		go rt.probeLoop(ctx, ns)
	}
}

func (rt *Router) probeLoop(ctx context.Context, ns *nodeState) {
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rt.recordProbe(ns, rt.probe(ctx, ns))
	}
}

// probe reports whether one /healthz round trip succeeded.
func (rt *Router) probe(ctx context.Context, ns *nodeState) bool {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ns.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var h service.HealthzResponse
		if json.NewDecoder(resp.Body).Decode(&h) == nil && h.Workers > 0 {
			ns.workers.Store(int64(h.Workers))
		}
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

// aliveWorkers sums the engine pool sizes the alive nodes last reported:
// the number of subtree walks the cluster runs at once, since a node walks
// each root on one goroutine. Zero until a probe has answered.
func (rt *Router) aliveWorkers() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	n := 0
	for _, ns := range rt.nodes {
		if ns.alive {
			n += int(ns.workers.Load())
		}
	}
	return n
}

// recordProbe folds one health observation into the node's streaks and
// moves it out of or back into the ring at the configured thresholds.
func (rt *Router) recordProbe(ns *nodeState, ok bool) {
	if ok {
		rt.recordSuccess(ns)
	} else {
		rt.recordFailure(ns)
	}
}

// recordFailure counts one failed probe or proxy transport error. At
// EjectAfter consecutive failures the node leaves the ring: its keys — and
// only its keys — flow to their ring successors until it rejoins.
func (rt *Router) recordFailure(ns *nodeState) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ns.consecOKs = 0
	ns.consecFails++
	if ns.alive && ns.consecFails >= rt.opts.EjectAfter {
		ns.alive = false
		rt.ring.Remove(ns.name)
		rt.met.ejects.Add(1)
	}
}

// recordSuccess counts one successful probe; RejoinAfter of them in a row
// restore an ejected node to the ring (re-adding reproduces its original
// key ownership exactly — membership is the ring's only state).
func (rt *Router) recordSuccess(ns *nodeState) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ns.consecFails = 0
	ns.consecOKs++
	if !ns.alive && ns.consecOKs >= rt.opts.RejoinAfter {
		ns.alive = true
		// Add cannot fail: the name was valid at NewRouter and is absent
		// from the ring while ejected.
		_ = rt.ring.Add(ns.name, ns.weight)
		rt.met.rejoins.Add(1)
	}
}

// candidates returns the failover sequence for a key under the current
// ring: the home node first, then up to Retries distinct ring successors.
// Empty when every node is ejected.
func (rt *Router) candidates(key string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Successors(key, rt.opts.Retries+1)
}

// Serve binds addr, serves the router until ctx is canceled, then shuts
// down gracefully, mirroring service.Serve. logf, when non-nil, receives
// one "listening on <addr>" line (how cmd/router reports a :0 port).
func Serve(ctx context.Context, addr string, opts Options, logf func(format string, args ...any)) error {
	rt, err := NewRouter(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	rt.Start(probeCtx)
	if logf != nil {
		logf("router listening on %s (%d nodes, vnodes=%d, retries=%d)",
			ln.Addr(), len(rt.nodes), rt.ring.Vnodes(), rt.opts.Retries)
	}
	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       rt.opts.RequestTimeout,
		WriteTimeout:      rt.opts.RequestTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() != nil {
		return <-done
	}
	return nil
}
