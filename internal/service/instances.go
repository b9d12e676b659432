package service

import (
	"net/http"
	"strings"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/store"
)

// ---- /v1/instances ----

// InstanceRequest registers a document with the content-addressed store:
// exactly one of Instance, Pipeline and Platform. (The route name predates
// the two description kinds; all three share the registry and the ID
// space, so search requests can reference a pipeline and a platform by ID
// the same way evaluate references an instance.)
type InstanceRequest struct {
	Instance *model.Instance    `json:"instance,omitempty"`
	Pipeline *pipeline.Pipeline `json:"pipeline,omitempty"`
	Platform *platform.Platform `json:"platform,omitempty"`
}

// Validate checks that the request carries exactly one document.
func (req *InstanceRequest) Validate() error {
	set := 0
	for _, present := range []bool{req.Instance != nil, req.Pipeline != nil, req.Platform != nil} {
		if present {
			set++
		}
	}
	switch {
	case set == 0:
		return badRequest("missing \"instance\" (or \"pipeline\"/\"platform\" to register a description)")
	case set > 1:
		return badRequest("\"instance\", \"pipeline\" and \"platform\" are mutually exclusive")
	}
	return nil
}

// InstanceResponse answers a registration (POST) or lookup (GET). The ID is
// the hex SHA-256 of the canonical content serialization: the same timed
// structure registers under the same ID from any client, on any node, across
// restarts — which is exactly what a consistent-hash router shards on.
type InstanceResponse struct {
	ID string `json:"id"`
	// Created reports whether this registration inserted a new entry (false:
	// the content was already resident and the ID refers to it).
	Created bool `json:"created"`
	// CanonicalKey is the model-independent canonical serialization the ID
	// addresses (replication structure plus exact operation times) — returned
	// on registration so a client can verify what it registered; omitted on
	// GET, where Instance carries the content itself. Instance kind only.
	CanonicalKey string `json:"canonicalKey,omitempty"`
	// Kind names the registered document kind for pipeline and platform
	// documents; omitted for instances (the original, default kind — its
	// responses predate Kind and keep their exact shape).
	Kind string `json:"kind,omitempty"`
	// Stages and PathCount summarize instance structure (Stages also counts
	// a pipeline's stages); Procs summarizes a platform.
	Stages    int   `json:"stages,omitempty"`
	PathCount int64 `json:"pathCount,omitempty"`
	Procs     int   `json:"procs,omitempty"`
	// Instance/Pipeline/Platform echo the stored content on GET lookups.
	Instance *model.Instance    `json:"instance,omitempty"`
	Pipeline *pipeline.Pipeline `json:"pipeline,omitempty"`
	Platform *platform.Platform `json:"platform,omitempty"`
}

// handleInstancePost registers an instance: POST /v1/instances with
// {"instance": {...}} answers the stable content ID. Registering the same
// content twice is an idempotent dedup, not an error.
//
// POST and GET count under separate metrics keys ("instancesPost" /
// "instancesGet"): registration volume and by-ID lookup volume are different
// signals — the router's load accounting reads them separately, and one
// shared "instances" counter made a replay storm indistinguishable from a
// lookup-heavy workload.
func (s *Server) handleInstancePost(w http.ResponseWriter, r *http.Request) {
	const name = "instancesPost"
	s.met.requests.Add(name, 1)
	if r.Method != http.MethodPost {
		s.fail(w, name, http.StatusMethodNotAllowed, "/v1/instances requires POST (GET /v1/instances/{id} looks up)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req InstanceRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		s.failErr(w, name, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.failErr(w, name, err)
		return
	}
	var (
		ent     *store.Entry
		created bool
		err     error
	)
	switch {
	case req.Pipeline != nil:
		if verr := req.Pipeline.Validate(); verr != nil {
			s.failErr(w, name, badRequest("%v", verr))
			return
		}
		ent, created, err = s.store.PutPipeline(req.Pipeline)
	case req.Platform != nil:
		if verr := req.Platform.Validate(); verr != nil {
			s.failErr(w, name, badRequest("%v", verr))
			return
		}
		ent, created, err = s.store.PutPlatform(req.Platform)
	default:
		ent, created, err = s.store.Put(req.Instance)
	}
	if err != nil {
		// ErrFull: every resident entry is pinned by an in-flight request —
		// a transient overload, so tell the client to retry, like a full
		// solve queue.
		s.fail(w, name, http.StatusServiceUnavailable, err.Error())
		return
	}
	resp := InstanceResponse{ID: ent.ID(), Created: created}
	switch ent.Kind() {
	case store.KindPipeline:
		resp.Kind = string(store.KindPipeline)
		resp.Stages = len(ent.Pipeline().Stages)
	case store.KindPlatform:
		resp.Kind = string(store.KindPlatform)
		resp.Procs = ent.Platform().NumProcs()
	default:
		inst := ent.Instance()
		_, content := ent.TaskKey(model.Overlap)
		// The overlap task key is model prefix + content; strip the prefix to
		// hand back the model-free canonical serialization the ID hashes.
		resp.CanonicalKey = strings.TrimPrefix(content, overlapKeyPrefix)
		resp.Stages = inst.NumStages()
		resp.PathCount = inst.PathCount()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// overlapKeyPrefix is the model prefix engine.CanonicalKey prepends to the
// content serialization for the overlap model (model.Overlap == 0).
const overlapKeyPrefix = "0"

// handleInstanceGet looks a registration up: GET /v1/instances/{id} echoes
// the stored instance, 404 when the ID is unknown (never registered, or
// evicted by store pressure — re-register to restore it).
func (s *Server) handleInstanceGet(w http.ResponseWriter, r *http.Request) {
	const name = "instancesGet"
	s.met.requests.Add(name, 1)
	if r.Method != http.MethodGet {
		s.fail(w, name, http.StatusMethodNotAllowed, "/v1/instances/{id} requires GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/instances/")
	if id == "" || strings.Contains(id, "/") {
		s.failErr(w, name, badRequest("bad instance path %q (want /v1/instances/{id})", r.URL.Path))
		return
	}
	ent, ok := s.store.Resolve(id)
	if !ok {
		s.failErr(w, name, codedError(http.StatusNotFound, CodeUnknownInstance,
			"unknown instance ID %q (expired or never registered; POST /v1/instances to register)", id))
		return
	}
	defer ent.Release()
	resp := InstanceResponse{ID: ent.ID(), Created: false}
	switch ent.Kind() {
	case store.KindPipeline:
		resp.Kind = string(store.KindPipeline)
		resp.Stages = len(ent.Pipeline().Stages)
		resp.Pipeline = ent.Pipeline()
	case store.KindPlatform:
		resp.Kind = string(store.KindPlatform)
		resp.Procs = ent.Platform().NumProcs()
		resp.Platform = ent.Platform()
	default:
		inst := ent.Instance()
		resp.Stages = inst.NumStages()
		resp.PathCount = inst.PathCount()
		resp.Instance = inst
	}
	WriteJSON(w, http.StatusOK, resp)
}

// resolveInstance resolves a by-ID reference for a solve request: the entry
// comes back pinned (the caller owes one Release once the request finishes)
// so store eviction cannot recycle it mid-solve.
func (s *Server) resolveInstance(id string) (*store.Entry, error) {
	return s.resolveDoc(id, store.KindInstance)
}

// resolveDoc resolves a by-ID reference of the expected document kind,
// pinned like resolveInstance. A registered ID of the wrong kind is a 400
// naming both kinds — truthfully distinct from an unknown ID's 404.
func (s *Server) resolveDoc(id string, kind store.Kind) (*store.Entry, error) {
	ent, ok := s.store.Resolve(id)
	if !ok {
		return nil, codedError(http.StatusNotFound, CodeUnknownInstance,
			"unknown %s ID %q (expired or never registered; POST /v1/instances to register)", kind, id)
	}
	if ent.Kind() != kind {
		ent.Release()
		return nil, badRequest("ID %q names a registered %s, not a %s", id, ent.Kind(), kind)
	}
	return ent, nil
}
