package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"

	"repro/internal/bnb"
	"repro/internal/jobs"
	"repro/internal/rat"
)

// Incumbent is the best feasible mapping known at flush time, carried
// exactly (the period is a rational string).
type Incumbent struct {
	Replicas [][]int `json:"replicas"`
	Period   string  `json:"period"`
}

// Failure mirrors jobs.Failure for the durable record.
type Failure struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stats freezes the job's final progress counters at terminal time, so a
// restarted server answers status polls with the numbers the job actually
// ran up, not zeros.
type Stats struct {
	Nodes       int64 `json:"nodes,omitempty"`
	Leaves      int64 `json:"leaves,omitempty"`
	Pruned      int64 `json:"pruned,omitempty"`
	Screened    int64 `json:"screened,omitempty"`
	PointsDone  int64 `json:"pointsDone,omitempty"`
	PointsTotal int64 `json:"pointsTotal,omitempty"`
}

// Record is one job's durable state. While the job runs, Roots accumulates
// the finished frontier roots, each with the root descriptor and warm
// period it ran from (the resume path replays those that still match the
// re-expanded plan); once terminal, the final response body or failure
// replaces them.
//
// Body and Result are []byte (base64 in the file), NOT json.RawMessage:
// marshaling a RawMessage compacts it, which would silently rewrite the
// client's submission bytes (breaking the BodyHash integrity check for any
// non-compact body) and strip the encoder's trailing newline from results
// (breaking byte-identical replay after a restart).
type Record struct {
	JobID    string `json:"jobId"`
	Kind     string `json:"kind"`
	Body     []byte `json:"body,omitempty"`
	BodyHash string `json:"bodyHash,omitempty"`
	State    string `json:"state"`
	// Frontier is the planned frontier size; DoneRoots is the index bitmap
	// of finished roots as a hex string (LSB = root 0), redundant with the
	// keys of Roots and cross-checked on load.
	Frontier  int                  `json:"frontier,omitempty"`
	DoneRoots string               `json:"doneRoots,omitempty"`
	Roots     map[int]bnb.Finished `json:"roots,omitempty"`
	Incumbent *Incumbent           `json:"incumbent,omitempty"`
	Result    []byte               `json:"result,omitempty"`
	Failure   *Failure             `json:"failure,omitempty"`
	Stats     *Stats               `json:"stats,omitempty"`
}

// Bitmap renders the finished-root indices as a little-endian hex bitmap
// (LSB of byte 0 = root 0). Exported so the resume tests — and any tool
// inspecting checkpoint files — can produce the exact on-disk encoding.
func Bitmap(roots map[int]bnb.Finished, frontier int) string {
	if frontier <= 0 || len(roots) == 0 {
		return ""
	}
	bits := make([]byte, (frontier+7)/8)
	for idx := range roots {
		if idx >= 0 && idx < frontier {
			bits[idx/8] |= 1 << (idx % 8)
		}
	}
	return hex.EncodeToString(bits)
}

// Manager implements jobs.Persister over a Store, with interval-based
// flushing of per-root progress: RootDone marks a root finished in memory
// and writes the record through when Interval has elapsed since the last
// write (Interval <= 0 flushes on every root). Submitted and Terminal
// always write through — the boundaries of a job are never lost, only
// up to Interval's worth of finished roots in between.
type Manager struct {
	store    *Store
	interval time.Duration

	mu   sync.Mutex
	live map[string]*jobRecord
}

type jobRecord struct {
	rec       Record
	lastFlush time.Time
	dirty     int // finished roots not yet on disk
}

// NewManager builds a Persister persisting to dir every interval.
func NewManager(dir string, interval time.Duration) (*Manager, error) {
	store, err := NewStore(dir)
	if err != nil {
		return nil, err
	}
	return &Manager{store: store, interval: interval, live: make(map[string]*jobRecord)}, nil
}

// Store exposes the underlying record layer (the resume path lists it).
func (m *Manager) Store() *Store { return m.store }

// Submitted persists the birth of every detached job that carries a body.
// Inline jobs die with their request and are not worth a file.
func (m *Manager) Submitted(j *jobs.Job) {
	if !j.Detached() || len(j.Body()) == 0 {
		return
	}
	sum := sha256.Sum256(j.Body())
	rec := Record{
		JobID:    j.ID(),
		Kind:     j.Kind(),
		Body:     append([]byte(nil), j.Body()...),
		BodyHash: hex.EncodeToString(sum[:]),
		State:    string(jobs.StateRunning),
	}
	m.mu.Lock()
	m.live[j.ID()] = &jobRecord{rec: rec, lastFlush: time.Now()}
	m.mu.Unlock()
	m.flush(j.ID(), true)
}

// RootDone records one finished frontier root. It is safe for concurrent
// use (bnb calls it from worker goroutines) and cheap between flushes: a
// map insert under the manager lock.
func (m *Manager) RootDone(jobID string, frontier int, done bnb.Finished) {
	m.mu.Lock()
	jr, ok := m.live[jobID]
	if !ok {
		m.mu.Unlock()
		return
	}
	if jr.rec.Roots == nil {
		jr.rec.Roots = make(map[int]bnb.Finished)
	}
	jr.rec.Frontier = frontier
	jr.rec.Roots[done.Root.Index] = done
	if res := done.Result; res.BestPeriod != "" {
		better := jr.rec.Incumbent == nil || lessPeriod(res.BestPeriod, jr.rec.Incumbent.Period)
		if better {
			jr.rec.Incumbent = &Incumbent{Replicas: res.BestReplicas, Period: res.BestPeriod}
		}
	}
	jr.dirty++
	due := m.interval <= 0 || time.Since(jr.lastFlush) >= m.interval
	m.mu.Unlock()
	if due {
		m.flush(jobID, false)
	}
}

// Terminal persists the final verdict: state, response body or failure.
// The per-root working set is dropped — a terminal record answers result
// polls after a restart, it no longer needs to resume anything.
func (m *Manager) Terminal(j *jobs.Job) {
	m.mu.Lock()
	jr, ok := m.live[j.ID()]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(m.live, j.ID())
	jr.rec.State = string(j.State())
	jr.rec.Roots = nil
	jr.rec.DoneRoots = ""
	jr.rec.Frontier = 0
	jr.rec.Incumbent = nil
	if body, ok := j.Result(); ok {
		jr.rec.Result = append([]byte(nil), body...)
	}
	if f := j.Failure(); f != nil {
		jr.rec.Failure = &Failure{Status: f.Status, Code: f.Code, Message: f.Message}
	}
	p := j.Progress()
	jr.rec.Stats = &Stats{
		Nodes: p.Nodes.Load(), Leaves: p.Leaves.Load(),
		Pruned: p.Pruned.Load(), Screened: p.Screened.Load(),
		PointsDone: p.PointsDone.Load(), PointsTotal: p.PointsTotal.Load(),
	}
	rec := jr.rec
	m.mu.Unlock()
	m.store.Save(rec.JobID, rec)
}

// Evicted drops the durable record when the in-memory registry recycles
// the job — disk usage stays bounded by the same CLOCK policy as memory.
func (m *Manager) Evicted(j *jobs.Job) {
	m.mu.Lock()
	delete(m.live, j.ID())
	m.mu.Unlock()
	m.store.Delete(j.ID())
}

// Resumable loads every record still worth acting on after a restart:
// terminal records (rehydrated so pollers keep their answers) and running
// records (re-submitted and resumed from their finished roots). Records
// that fail their integrity check are skipped — a torn write costs that
// job its checkpoint, never the whole registry. The DoneRoots bitmap is
// cross-checked against the Roots keys; on mismatch the roots are dropped
// and the job simply re-runs from scratch.
func (m *Manager) Resumable() []Record {
	names, err := m.store.List()
	if err != nil {
		return nil
	}
	var out []Record
	for _, name := range names {
		var rec Record
		if err := m.store.Load(name, &rec); err != nil {
			continue
		}
		if rec.JobID == "" || rec.JobID != name {
			continue
		}
		if rec.BodyHash != "" {
			sum := sha256.Sum256(rec.Body)
			if hex.EncodeToString(sum[:]) != rec.BodyHash {
				// The stored body does not hash to what the record claims —
				// resuming would re-run someone else's request under this ID.
				continue
			}
		}
		if len(rec.Roots) > 0 && rec.DoneRoots != Bitmap(rec.Roots, rec.Frontier) {
			rec.Roots = nil
			rec.Incumbent = nil
		}
		out = append(out, rec)
	}
	return out
}

// Adopt re-registers a resumed job with the manager so RootDone calls
// against its ID keep checkpointing — the restart counterpart of
// Submitted, seeded with the replayed roots. The roots map is cloned:
// the caller hands the same map to the resumed search as its replay set,
// which worker goroutines read concurrently with RootDone's writes here.
func (m *Manager) Adopt(rec Record) {
	if len(rec.Roots) > 0 {
		roots := make(map[int]bnb.Finished, len(rec.Roots))
		for k, v := range rec.Roots {
			roots[k] = v
		}
		rec.Roots = roots
	}
	m.mu.Lock()
	m.live[rec.JobID] = &jobRecord{rec: rec, lastFlush: time.Now()}
	m.mu.Unlock()
}

// flush writes a live record through. force ignores the interval.
func (m *Manager) flush(jobID string, force bool) {
	m.mu.Lock()
	jr, ok := m.live[jobID]
	if !ok {
		m.mu.Unlock()
		return
	}
	if !force && jr.dirty == 0 {
		m.mu.Unlock()
		return
	}
	jr.rec.DoneRoots = Bitmap(jr.rec.Roots, jr.rec.Frontier)
	rec := jr.rec
	rec.Roots = make(map[int]bnb.Finished, len(jr.rec.Roots))
	for k, v := range jr.rec.Roots {
		rec.Roots[k] = v
	}
	jr.dirty = 0
	jr.lastFlush = time.Now()
	m.mu.Unlock()
	m.store.Save(rec.JobID, rec)
}

// lessPeriod compares two exact period strings; unparseable input never
// wins.
func lessPeriod(a, b string) bool {
	ra, err := rat.Parse(a)
	if err != nil {
		return false
	}
	rb, err := rat.Parse(b)
	if err != nil {
		return true
	}
	return ra.Less(rb)
}

var _ jobs.Persister = (*Manager)(nil)
