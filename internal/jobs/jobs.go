// Package jobs is the job manager behind the service's asynchronous API:
// every long-running request — a branch-and-bound search, a runtime sweep —
// is registered here as a job with an ID, a state machine, live progress
// counters and (once terminal) a retained result, whether the caller waits
// for the answer inline (the synchronous /v1/search and /v1/sweep paths)
// or polls for it later (POST /v1/jobs).
//
// Design:
//
//   - One execution path. The manager does not run anything itself; the
//     serving layer constructs a runner once and executes it under a job
//     regardless of transport. Submit/Start/Finish bracket that execution,
//     so synchronous and asynchronous requests differ only in who waits.
//
//   - Deterministic IDs. A job ID is "<prefix>-<seq>" where the prefix is
//     supplied by the caller (the service hashes the raw submission body;
//     synchronous requests use their kind) and seq is a per-prefix counter
//     starting at 1. Because the counter is per prefix, the IDs assigned to
//     a given submission history do not depend on how unrelated submissions
//     interleave — which is what lets a consistent-hash router route job
//     traffic by prefix and observe the same IDs a single node would mint.
//
//   - Bounded registry. Non-terminal detached jobs are capped (Submit
//     refuses past MaxActive — back-pressure, like a full solve queue);
//     terminal jobs move into a bounded internal/clock cache where a Get
//     sets the reference bit. They enter it cold, unless a Get saw them
//     active: a job someone is polling must survive until it is fetched. A
//     10x oversubmission therefore cannot grow the registry past
//     MaxActive + TerminalEntries jobs.
//
//   - Lock-cheap progress. Progress is a fixed struct of atomic counters
//     the solve loops add to and pollers read without any lock.
//
//   - Persister. Terminal transitions are offered to a Persister — the
//     stub seam where disk checkpointing of job state will land; the
//     default discards everything.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// State is a job's lifecycle state.
type State string

const (
	// StatePending is a submitted job not yet started.
	StatePending State = "pending"
	// StateRunning is a job whose runner is executing.
	StateRunning State = "running"
	// StateDone is a job that completed with a result.
	StateDone State = "done"
	// StateFailed is a job whose runner returned an error.
	StateFailed State = "failed"
	// StateCanceled is a job whose cancellation was requested before it
	// finished. A canceled job may still carry a result: the exact search is
	// anytime, so cancel mid-run surfaces the best incumbent found so far.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// ParseState parses a state filter value.
func ParseState(s string) (State, error) {
	switch State(s) {
	case StatePending, StateRunning, StateDone, StateFailed, StateCanceled:
		return State(s), nil
	}
	return "", fmt.Errorf("jobs: unknown state %q (want pending, running, done, failed or canceled)", s)
}

// Progress is the live per-job progress block: lock-cheap atomics the solve
// loops add to (the bnb walkers per leaf, the sweep per finished
// point) and pollers read without synchronization. Which counters move
// depends on the job kind; the rest stay zero.
type Progress struct {
	// Nodes, Leaves, Pruned and Screened mirror bnb.Stats for search jobs.
	Nodes, Leaves, Pruned, Screened atomic.Int64
	// PointsDone/PointsTotal count sweep points answered vs requested.
	PointsDone, PointsTotal atomic.Int64
}

// Failure is the recorded verdict of a job that did not produce a result:
// the HTTP status, machine-readable code and message the result endpoint
// replays to pollers.
type Failure struct {
	Status  int
	Code    string
	Message string
}

// Persister receives job lifecycle events. It is the seam where disk
// checkpointing will attach (resumable subtree roots are already the bnb
// unit of progress); the current implementations only need to observe.
// Calls are made outside the manager lock in no guaranteed order relative
// to concurrent registry reads.
type Persister interface {
	// Submitted is called once per job after registration.
	Submitted(j *Job)
	// Terminal is called once per job after its terminal transition, with
	// result or failure recorded.
	Terminal(j *Job)
	// Evicted is called when a terminal job is recycled out of the registry
	// to make room — the signal to drop its durable record too, so the
	// checkpoint directory stays bounded by the same policy as memory.
	Evicted(j *Job)
}

// nopPersister discards all events (the default).
type nopPersister struct{}

func (nopPersister) Submitted(*Job) {}
func (nopPersister) Terminal(*Job)  {}
func (nopPersister) Evicted(*Job)   {}

// Job is one registered execution. The progress block is updated by the
// runner and read by pollers; everything else mutates only under the
// manager's lock.
type Job struct {
	id       string
	kind     string
	detached bool
	body     []byte // raw submission body (detached jobs; nil otherwise)
	ctx      context.Context
	cancel   context.CancelFunc
	prog     Progress
	done     chan struct{}

	m *Manager

	// Guarded by m.mu.
	state           State
	cancelRequested bool
	watched         bool // Get saw the job active: it enters the registry referenced
	result          []byte
	failure         *Failure
}

// ID returns the job ID ("<prefix>-<seq>").
func (j *Job) ID() string { return j.id }

// Kind returns the job kind ("search", "sweep").
func (j *Job) Kind() string { return j.kind }

// Detached reports whether the job outlives its submitting request (an
// async POST /v1/jobs submission) rather than being waited on inline.
func (j *Job) Detached() bool { return j.detached }

// Body returns the raw submission body recorded at Submit, nil when none
// was supplied (inline jobs). The checkpoint layer persists it so a resumed
// process can re-plan the job from the identical request bytes. Callers
// must not mutate the slice.
func (j *Job) Body() []byte { return j.body }

// Context is the job's run context: canceled by Cancel, by the submission
// parent, or by the job timeout.
func (j *Job) Context() context.Context { return j.ctx }

// Progress returns the live progress counters.
func (j *Job) Progress() *Progress { return &j.prog }

// Done is closed at the terminal transition — the submit-and-wait hook.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() State {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.state
}

// CancelRequested reports whether Cancel was called before the job
// finished.
func (j *Job) CancelRequested() bool {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.cancelRequested
}

// Result returns the retained result body (nil, false when the job is not
// terminal or finished without one). The slice is owned by the job; callers
// must not mutate it.
func (j *Job) Result() ([]byte, bool) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	if j.result == nil {
		return nil, false
	}
	return j.result, true
}

// Failure returns the recorded failure, nil when none.
func (j *Job) Failure() *Failure {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.failure
}

// Default registry bounds.
const (
	// DefaultTerminalEntries bounds retained terminal jobs: at a few KB per
	// retained result the default stays within single-digit MiB.
	DefaultTerminalEntries = 1024
	// DefaultMaxActive caps concurrently resident detached jobs.
	DefaultMaxActive = 256
)

// ErrBusy reports that the detached-job capacity is reached; the submitter
// should shed load (HTTP 503), exactly like a full solve queue.
var ErrBusy = errors.New("jobs: active job capacity reached")

// Options configures a Manager. The zero value uses the defaults above and
// discards persistence events.
type Options struct {
	// TerminalEntries bounds retained terminal jobs (0 = the default).
	TerminalEntries int
	// MaxActive caps concurrently resident non-terminal detached jobs
	// (0 = the default). Inline jobs are exempt: their admission is already
	// governed by the server's in-flight budget and their lifetime by the
	// request.
	MaxActive int
	// Persister observes lifecycle events (nil = discard).
	Persister Persister
}

// Metrics is a point-in-time snapshot of the manager.
type Metrics struct {
	// Submitted counts registrations; Done/Failed/Canceled count terminal
	// transitions by outcome; Rejected counts submissions refused by the
	// MaxActive cap; Evictions counts terminal jobs recycled to make room.
	Submitted, Done, Failed, Canceled, Rejected, Evictions int64
	// Active is the current non-terminal resident count (inline included);
	// Terminal the retained terminal count.
	Active, Terminal int64
	// ActiveCapacity/TerminalCapacity are the configured bounds.
	ActiveCapacity, TerminalCapacity int
}

// Manager is the bounded job registry. Safe for concurrent use.
type Manager struct {
	opts Options

	mu        sync.Mutex
	active    map[string]*Job // resident non-terminal jobs (inline included)
	terminal  *clock.Cache[string, *Job]
	seq       map[string]*prefixSeq
	detached  int // resident non-terminal detached jobs (the MaxActive cap)
	submitted int64
	finished  [3]int64 // done, failed, canceled
	rejected  int64
}

// prefixSeq is the per-prefix ID allocator plus the resident count that
// bounds the map: when the last job of a prefix leaves the registry the
// entry is deleted, so the allocator cannot grow past the registry bound.
type prefixSeq struct {
	next     uint64
	resident int
}

// New builds a manager.
func New(opts Options) *Manager {
	if opts.TerminalEntries <= 0 {
		opts.TerminalEntries = DefaultTerminalEntries
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = DefaultMaxActive
	}
	if opts.Persister == nil {
		opts.Persister = nopPersister{}
	}
	return &Manager{
		opts:     opts,
		active:   make(map[string]*Job),
		terminal: clock.New[string, *Job](opts.TerminalEntries),
		seq:      make(map[string]*prefixSeq),
	}
}

// find looks a resident job up, active or terminal. Caller holds m.mu.
func (m *Manager) find(id string) (*Job, bool) {
	if j, ok := m.active[id]; ok {
		return j, true
	}
	return m.terminal.Get(id)
}

// Submit registers a job under the given ID prefix. The job's context
// derives from parent (nil = background) and is canceled by Cancel or, when
// timeout > 0, after timeout. detached marks an async submission: it counts
// against MaxActive and Submit fails with ErrBusy past the cap; inline
// submissions always succeed. body, when non-nil, is the raw submission
// body retained for the Persister (pass nil for inline jobs — their
// lifetime is the request's).
func (m *Manager) Submit(kind, prefix string, body []byte, parent context.Context, timeout time.Duration, detached bool) (*Job, error) {
	if parent == nil {
		parent = context.Background()
	}
	m.mu.Lock()
	if detached && m.detached >= m.opts.MaxActive {
		m.rejected++
		m.mu.Unlock()
		return nil, ErrBusy
	}
	ps := m.seq[prefix]
	if ps == nil {
		ps = &prefixSeq{}
		m.seq[prefix] = ps
	}
	// Allocate the next free sequence number. A resident collision is only
	// possible after the allocator was reset by eviction while an older job
	// of the same prefix survived; bumping past it keeps IDs unique.
	var id string
	for {
		ps.next++
		id = fmt.Sprintf("%s-%d", prefix, ps.next)
		if _, taken := m.find(id); !taken {
			break
		}
	}
	j := m.registerLocked(id, kind, body, ps, parent, timeout, detached)
	m.mu.Unlock()
	m.opts.Persister.Submitted(j)
	return j, nil
}

// Resume registers a job under its exact original ID — the restart path: a
// checkpointed job interrupted by a crash re-enters the registry with the
// identity every client already holds. It fails when the ID is taken or
// malformed, and advances the prefix allocator past the resumed sequence
// number so future submissions cannot collide.
func (m *Manager) Resume(id, kind string, body []byte, parent context.Context, timeout time.Duration) (*Job, error) {
	if parent == nil {
		parent = context.Background()
	}
	prefix, seq, err := splitID(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if _, taken := m.find(id); taken {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: id %q already registered", id)
	}
	ps := m.seq[prefix]
	if ps == nil {
		ps = &prefixSeq{}
		m.seq[prefix] = ps
	}
	if ps.next < seq {
		ps.next = seq
	}
	j := m.registerLocked(id, kind, body, ps, parent, timeout, true)
	m.mu.Unlock()
	m.opts.Persister.Submitted(j)
	return j, nil
}

// Rehydrate injects an already-terminal job — restart replay of a job that
// finished before the crash, so pollers keep getting the answer they were
// promised. state must be terminal and is kept verbatim (a canceled bnb job
// stays canceled, even when its anytime result rode along). The job enters
// the terminal cache like any terminal transition; the Persister observes
// nothing (the durable record already exists). It fails when the ID is
// taken or malformed.
func (m *Manager) Rehydrate(id, kind string, state State, result []byte, failure *Failure) (*Job, error) {
	prefix, seq, err := splitID(id)
	if err != nil {
		return nil, err
	}
	if !state.Terminal() {
		return nil, fmt.Errorf("jobs: cannot rehydrate %q in non-terminal state %q", id, state)
	}
	m.mu.Lock()
	if _, taken := m.find(id); taken {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: id %q already registered", id)
	}
	ps := m.seq[prefix]
	if ps == nil {
		ps = &prefixSeq{}
		m.seq[prefix] = ps
	}
	if ps.next < seq {
		ps.next = seq
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &Job{
		id:       id,
		kind:     kind,
		detached: true,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		m:        m,
		state:    state,
		result:   result,
		failure:  failure,
	}
	close(j.done)
	ps.resident++
	m.submitted++
	switch state {
	case StateFailed:
		m.finished[1]++
	case StateCanceled:
		m.finished[2]++
	default:
		m.finished[0]++
	}
	victim := m.retain(j)
	m.mu.Unlock()
	if victim != nil {
		m.opts.Persister.Evicted(victim)
	}
	return j, nil
}

// registerLocked creates and indexes a non-terminal job. Caller holds m.mu
// and has reserved the ID.
func (m *Manager) registerLocked(id, kind string, body []byte, ps *prefixSeq, parent context.Context, timeout time.Duration, detached bool) *Job {
	ctx, cancel := context.WithCancel(parent)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	}
	j := &Job{
		id:       id,
		kind:     kind,
		detached: detached,
		body:     body,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		m:        m,
		state:    StatePending,
	}
	m.active[id] = j
	ps.resident++
	if detached {
		m.detached++
	}
	m.submitted++
	return j
}

// splitID splits "<prefix>-<seq>" and parses the sequence number.
func splitID(id string) (prefix string, seq uint64, err error) {
	i := lastDash(id)
	if i <= 0 || i == len(id)-1 {
		return "", 0, fmt.Errorf("jobs: malformed id %q", id)
	}
	for _, c := range id[i+1:] {
		if c < '0' || c > '9' {
			return "", 0, fmt.Errorf("jobs: malformed id %q", id)
		}
		seq = seq*10 + uint64(c-'0')
	}
	return id[:i], seq, nil
}

// Start transitions a pending job to running.
func (m *Manager) Start(j *Job) {
	m.mu.Lock()
	if j.state == StatePending {
		j.state = StateRunning
	}
	m.mu.Unlock()
}

// Finish records a job's terminal transition: canceled when cancellation
// was requested, failed when a failure is recorded, done otherwise. The
// result (if any) is retained for GET /v1/jobs/{id}/result; Finish copies
// nothing — pass an owned slice. Calling Finish on an already-terminal job
// is a no-op, which makes the backstop finalizers (queue-timeout, panic)
// safe to run unconditionally.
func (m *Manager) Finish(j *Job, result []byte, failure *Failure) {
	m.mu.Lock()
	if j.state.Terminal() {
		m.mu.Unlock()
		return
	}
	switch {
	case j.cancelRequested:
		j.state = StateCanceled
		m.finished[2]++
	case failure != nil:
		j.state = StateFailed
		m.finished[1]++
	default:
		j.state = StateDone
		m.finished[0]++
	}
	j.result = result
	j.failure = failure
	delete(m.active, j.id)
	if j.detached {
		m.detached--
	}
	victim := m.retain(j)
	m.mu.Unlock()
	j.cancel() // release the context's timer/goroutine
	close(j.done)
	if victim != nil {
		m.opts.Persister.Evicted(victim)
	}
	m.opts.Persister.Terminal(j)
}

// Deposit attaches result bytes to an already-terminal job (copying them).
// The synchronous path finishes the job first — the encoded body exists
// only later, when the shared encoder has produced the response — and
// deposits the same bytes it writes to the client, so a subsequent result
// poll answers the identical body. A deposit on a failed job, or a second
// deposit, is ignored.
func (m *Manager) Deposit(j *Job, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if (j.state == StateDone || j.state == StateCanceled) && j.result == nil {
		j.result = append([]byte(nil), body...)
	}
}

// retain inserts a terminal job into the terminal cache. When that recycled
// a job, retain releases the victim's prefix allocator entry if it was the
// last resident of its prefix, and returns it. Caller holds m.mu and must
// offer the victim to the Persister's Evicted hook after releasing the lock.
// The cache never pins, so the insert always succeeds.
func (m *Manager) retain(j *Job) *Job {
	_, victim, evicted, _ := m.terminal.Put(j.id, j)
	if j.watched {
		// A poller is waiting for this job's result: the lookup sets the
		// reference bit the cold insert left clear, so the sweep of the next
		// insert cannot recycle the job before its submitter fetches it.
		m.terminal.Get(j.id)
	}
	if !evicted {
		return nil
	}
	prefix := victim.id
	if i := lastDash(prefix); i >= 0 {
		prefix = prefix[:i]
	}
	if ps := m.seq[prefix]; ps != nil {
		ps.resident--
		if ps.resident <= 0 {
			delete(m.seq, prefix)
		}
	}
	return victim
}

func lastDash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '-' {
			return i
		}
	}
	return -1
}

// Get looks a job up; a terminal job's lookup sets its reference bit, and
// an active job's marks it to enter the terminal registry referenced.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.active[id]; ok {
		j.watched = true
		return j, true
	}
	return m.terminal.Get(id)
}

// Cancel requests cooperative cancellation: the job's context is canceled
// and, unless it already finished, its terminal state will be
// StateCanceled — possibly still carrying a result, since the exact search
// returns its best incumbent when interrupted. Cancel on a terminal job is
// an idempotent no-op. The boolean reports whether the ID is registered.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.find(id)
	if !ok {
		m.mu.Unlock()
		return nil, false
	}
	if !j.state.Terminal() {
		j.cancelRequested = true
	}
	m.mu.Unlock()
	j.cancel()
	return j, true
}

// List snapshots registered jobs, filtered by kind and state ("" = any),
// sorted by ID — a deterministic order for a deterministic wire format.
func (m *Manager) List(kind string, state State) []*Job {
	m.mu.Lock()
	out := m.terminal.Values()
	for _, j := range m.active {
		out = append(out, j)
	}
	out = slices.DeleteFunc(out, func(j *Job) bool {
		return (kind != "" && j.kind != kind) || (state != "" && j.state != state)
	})
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// Metrics snapshots the manager counters in one lock acquisition.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.terminal.Stats()
	return Metrics{
		Submitted:        m.submitted,
		Done:             m.finished[0],
		Failed:           m.finished[1],
		Canceled:         m.finished[2],
		Rejected:         m.rejected,
		Evictions:        st.Evictions,
		Active:           int64(len(m.active)),
		Terminal:         st.Entries,
		ActiveCapacity:   m.opts.MaxActive,
		TerminalCapacity: m.opts.TerminalEntries,
	}
}
