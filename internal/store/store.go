// Package store is the content-addressed instance store behind the serving
// layer: clients register an instance once (POST /v1/instances) and refer to
// it by a stable content ID afterwards, cutting the per-request bytes from a
// multi-KB JSON instance to a 64-byte ID — the prerequisite for sharding the
// service, since the ID is exactly what a consistent-hash router routes on.
//
// Design:
//
//   - Content addressing. The ID is the SHA-256 of engine.InstanceKey — the
//     canonical serialization of the replication structure and exact
//     operation times. Registering the same timed structure twice (from any
//     client, in any representation that canonicalizes equally) yields the
//     same ID and one resident entry; IDs are valid across restarts and
//     across nodes because they depend on nothing but the content.
//
//   - Precomputed task keys. An entry carries the engine's canonical
//     (hash, key) pair for every communication model, computed once at
//     registration. A by-ID request therefore performs zero canonical
//     serialization: the multi-KB key the memo cache and the request
//     coalescer need is a field load.
//
//   - Bounded residency. The entries live in an internal/clock cache: at
//     most the configured capacity, registrations inserted cold, a resolve
//     setting the reference bit. Entries resolved by an in-flight request
//     are pinned and never evicted until released, so eviction pressure
//     cannot invalidate an instance mid-solve.
//
//   - Consistent metrics. Metrics inherits the cache's snapshot contract:
//     Entries+Evictions (cumulative inserts) is monotone across scrapes.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// numModels sizes the per-entry task-key tables; the communication models
// are a closed two-element enum (model.Models).
const numModels = 2

// DefaultCapacity bounds the store when Options leave it zero: at a few KB
// per entry (the instance plus three canonical strings) the default stays
// within tens of MiB while holding far more distinct instances than a
// loadgen-scale client population rotates through.
const DefaultCapacity = 4096

// ErrFull reports that every resident entry is pinned by an in-flight
// request and the capacity is reached — the only condition under which a
// registration is refused.
var ErrFull = errors.New("store: capacity reached and every entry is pinned")

// Kind distinguishes the document types the store holds. Instances were
// first; pipelines and platforms joined when /v1/search learned by-ID
// references — all three share the registry, the eviction policy and the
// pin protocol, because an ID's home node in the cluster ring must not
// depend on what kind of document it names.
type Kind string

const (
	// KindInstance is a timed instance (replication structure + times).
	KindInstance Kind = "instance"
	// KindPipeline is an application description (stage works + file sizes).
	KindPipeline Kind = "pipeline"
	// KindPlatform is a platform description (speeds + bandwidths).
	KindPlatform Kind = "platform"
)

// Entry is one registered document, immutable after registration. Exactly
// one of Instance, Pipeline and Platform is non-nil, according to Kind.
type Entry struct {
	id    string
	kind  Kind
	cache *clock.Cache[string, *Entry] // holds the entry's pin count
	inst  *model.Instance
	pipe  *pipeline.Pipeline
	plat  *platform.Platform

	// taskHash/taskKey are engine.CanonicalKey(Task{inst, m}) per model,
	// precomputed so the by-ID hot path never serializes the instance.
	// Instance entries only.
	taskHash [numModels]uint64
	taskKey  [numModels]string
}

// ID returns the stable content ID (hex SHA-256 of the canonical content).
func (e *Entry) ID() string { return e.id }

// Kind returns the document kind.
func (e *Entry) Kind() Kind { return e.kind }

// Instance returns the registered instance (immutable, safe to share);
// nil unless Kind is KindInstance.
func (e *Entry) Instance() *model.Instance { return e.inst }

// Pipeline returns the registered pipeline; nil unless Kind is
// KindPipeline.
func (e *Entry) Pipeline() *pipeline.Pipeline { return e.pipe }

// Platform returns the registered platform; nil unless Kind is
// KindPlatform.
func (e *Entry) Platform() *platform.Platform { return e.plat }

// TaskKey returns the engine's canonical (hash, key) pair for this instance
// under cm, precomputed at registration.
func (e *Entry) TaskKey(cm model.CommModel) (uint64, string) {
	return e.taskHash[cm], e.taskKey[cm]
}

// Release drops one pin. Every successful Resolve must be paired with
// exactly one Release once the request referencing the entry finishes.
func (e *Entry) Release() { e.cache.Unpin(e.id) }

// Metrics is a consistent point-in-time snapshot of the store.
type Metrics struct {
	// Puts counts registrations that created a new entry; Dedups counts
	// registrations answered by an existing entry (same content ID).
	Puts, Dedups int64
	// Resolves and Misses count by-ID lookups (found / unknown ID).
	Resolves, Misses int64
	// Evictions counts entries recycled to make room; Entries+Evictions is
	// the cumulative insert count and never decreases between snapshots.
	Evictions int64
	// Entries is the current resident count; never exceeds Capacity.
	Entries int64
	// Pinned is the number of entries currently held by in-flight requests.
	Pinned int64
	// Capacity is the configured bound.
	Capacity int
}

// Store is the bounded content-addressed instance store. Safe for concurrent
// use.
type Store struct {
	cache  *clock.Cache[string, *Entry] // content ID -> entry
	dedups atomic.Int64
}

// New builds a store holding at most capacity entries (<= 0 means
// DefaultCapacity).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cache: clock.New[string, *Entry](capacity)}
}

// ContentID computes the stable content ID an instance registers under,
// without touching the store: the hex SHA-256 of the canonical
// model-independent serialization.
func ContentID(inst *model.Instance) string {
	_, content := engine.InstanceKey(inst)
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// PipelineID computes the stable content ID a pipeline registers under:
// the hex SHA-256 of its kind-tagged canonical JSON. The tag keeps the
// three ID spaces disjoint — a pipeline can never alias an instance or a
// platform — while the JSON form (fixed field order, canonical numbers) is
// deterministic for equal documents.
func PipelineID(p *pipeline.Pipeline) string {
	return docID(KindPipeline, p)
}

// PlatformID computes the stable content ID a platform registers under;
// see PipelineID.
func PlatformID(p *platform.Platform) string {
	return docID(KindPlatform, p)
}

func docID(kind Kind, doc any) string {
	b, err := json.Marshal(doc)
	if err != nil {
		// Pipelines and platforms are plain data; Marshal cannot fail.
		panic("store: canonical marshal: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// Put registers an instance and returns its entry. created reports whether a
// new entry was inserted (false: the content was already registered and the
// existing entry is returned). Put fails only with ErrFull — capacity
// reached while every resident entry is pinned.
func (s *Store) Put(inst *model.Instance) (e *Entry, created bool, err error) {
	// Hash and serialize outside the lock: registration cost is dominated by
	// the canonical serializations, and they need no store state.
	ent := &Entry{id: ContentID(inst), kind: KindInstance, inst: inst}
	for _, cm := range model.Models() {
		h, k := engine.CanonicalKey(engine.Task{Inst: inst, Model: cm})
		ent.taskHash[cm], ent.taskKey[cm] = h, k
	}
	return s.insert(ent)
}

// PutPipeline registers a pipeline document under PipelineID(p).
func (s *Store) PutPipeline(p *pipeline.Pipeline) (e *Entry, created bool, err error) {
	return s.insert(&Entry{id: PipelineID(p), kind: KindPipeline, pipe: p})
}

// PutPlatform registers a platform document under PlatformID(p).
func (s *Store) PutPlatform(p *platform.Platform) (e *Entry, created bool, err error) {
	return s.insert(&Entry{id: PlatformID(p), kind: KindPlatform, plat: p})
}

// insert adds a prepared entry, deduplicating by content ID.
func (s *Store) insert(ent *Entry) (e *Entry, created bool, err error) {
	ent.cache = s.cache
	got, _, _, ok := s.cache.Put(ent.id, ent)
	switch {
	case !ok:
		return nil, false, ErrFull
	case got != ent:
		s.dedups.Add(1)
		return got, false, nil
	}
	return ent, true, nil
}

// Resolve looks an ID up and pins the entry: until the caller invokes
// Release, the entry cannot be evicted. The boolean reports whether the ID
// is registered.
func (s *Store) Resolve(id string) (*Entry, bool) {
	return s.cache.Pin(id)
}

// Metrics snapshots the store counters. Every registration that created an
// entry either still holds its slot or was evicted, so Puts is
// Entries+Evictions of one cache snapshot.
func (s *Store) Metrics() Metrics {
	st := s.cache.Stats()
	return Metrics{
		Puts:      st.Entries + st.Evictions,
		Dedups:    s.dedups.Load(),
		Resolves:  st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Pinned:    s.cache.Pinned(),
		Capacity:  st.Capacity,
	}
}
