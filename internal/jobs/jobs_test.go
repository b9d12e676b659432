package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStateTerminal(t *testing.T) {
	for _, tc := range []struct {
		s    State
		want bool
	}{
		{StatePending, false},
		{StateRunning, false},
		{StateDone, true},
		{StateFailed, true},
		{StateCanceled, true},
	} {
		if got := tc.s.Terminal(); got != tc.want {
			t.Errorf("%s.Terminal() = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestParseState(t *testing.T) {
	for _, s := range []string{"pending", "running", "done", "failed", "canceled"} {
		got, err := ParseState(s)
		if err != nil || got != State(s) {
			t.Errorf("ParseState(%q) = %q, %v", s, got, err)
		}
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Fatal("ParseState accepted bogus state")
	}
}

func TestSubmitFinishHappyPath(t *testing.T) {
	m := New(Options{})
	j, err := m.Submit("search", "abc", nil, context.Background(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "abc-1" {
		t.Fatalf("first ID = %q, want abc-1", j.ID())
	}
	if j.Kind() != "search" || !j.Detached() || j.State() != StatePending {
		t.Fatalf("job = kind %q detached %v state %q", j.Kind(), j.Detached(), j.State())
	}
	m.Start(j)
	if j.State() != StateRunning {
		t.Fatalf("after Start state = %q", j.State())
	}
	select {
	case <-j.Done():
		t.Fatal("Done closed before Finish")
	default:
	}
	m.Finish(j, []byte(`{"ok":true}`), nil)
	<-j.Done()
	if j.State() != StateDone {
		t.Fatalf("after Finish state = %q", j.State())
	}
	body, ok := j.Result()
	if !ok || string(body) != `{"ok":true}` {
		t.Fatalf("Result = %q, %v", body, ok)
	}
	if j.Failure() != nil {
		t.Fatalf("Failure = %+v, want nil", j.Failure())
	}
	// A second fetch returns the identical bytes.
	again, _ := j.Result()
	if &again[0] != &body[0] {
		t.Fatal("double result fetch returned different backing arrays")
	}
	got, ok := m.Get("abc-1")
	if !ok || got != j {
		t.Fatal("Get did not return the job")
	}
	if _, ok := m.Get("abc-2"); ok {
		t.Fatal("Get returned an unregistered ID")
	}
	mm := m.Metrics()
	if mm.Submitted != 1 || mm.Done != 1 || mm.Active != 0 || mm.Terminal != 1 {
		t.Fatalf("metrics = %+v", mm)
	}
}

func TestPerPrefixIDsAreIndependent(t *testing.T) {
	m := New(Options{})
	ids := []string{}
	for _, prefix := range []string{"a", "b", "a", "b", "a"} {
		j, err := m.Submit("search", prefix, nil, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	want := []string{"a-1", "b-1", "a-2", "b-2", "a-3"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestFinishFailed(t *testing.T) {
	m := New(Options{})
	j, _ := m.Submit("sweep", "x", nil, nil, 0, true)
	m.Start(j)
	m.Finish(j, nil, &Failure{Status: 400, Code: "invalid_request", Message: "boom"})
	if j.State() != StateFailed {
		t.Fatalf("state = %q", j.State())
	}
	if f := j.Failure(); f == nil || f.Status != 400 || f.Code != "invalid_request" {
		t.Fatalf("failure = %+v", j.Failure())
	}
	if _, ok := j.Result(); ok {
		t.Fatal("failed job has a result")
	}
	// Deposit on a failed job is ignored.
	m.Deposit(j, []byte("x"))
	if _, ok := j.Result(); ok {
		t.Fatal("Deposit attached a result to a failed job")
	}
	// Finish is idempotent: a late backstop cannot flip the verdict.
	m.Finish(j, []byte("late"), nil)
	if j.State() != StateFailed {
		t.Fatalf("second Finish changed state to %q", j.State())
	}
	if m.Metrics().Failed != 1 {
		t.Fatalf("metrics = %+v", m.Metrics())
	}
}

func TestCancel(t *testing.T) {
	m := New(Options{})
	j, _ := m.Submit("search", "c", nil, nil, 0, true)
	m.Start(j)
	got, ok := m.Cancel(j.ID())
	if !ok || got != j {
		t.Fatal("Cancel did not find the job")
	}
	if !j.CancelRequested() {
		t.Fatal("cancelRequested not set")
	}
	select {
	case <-j.Context().Done():
	default:
		t.Fatal("job context not canceled")
	}
	// The anytime search still produces a result; the state records cancel.
	m.Finish(j, []byte(`{"anytime":true}`), nil)
	if j.State() != StateCanceled {
		t.Fatalf("state = %q, want canceled", j.State())
	}
	if body, ok := j.Result(); !ok || string(body) != `{"anytime":true}` {
		t.Fatalf("canceled job result = %q, %v", body, ok)
	}
	// Cancel of a terminal job is a found no-op.
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("Cancel on terminal job reported unknown")
	}
	if _, ok := m.Cancel("nope-1"); ok {
		t.Fatal("Cancel on unknown ID reported found")
	}
	if m.Metrics().Canceled != 1 {
		t.Fatalf("metrics = %+v", m.Metrics())
	}
}

func TestDepositSyncPath(t *testing.T) {
	m := New(Options{})
	j, _ := m.Submit("search", "search", nil, nil, 0, false)
	m.Start(j)
	m.Finish(j, nil, nil) // sync path: terminal before the body is encoded
	src := []byte(`{"period":7}`)
	m.Deposit(j, src)
	src[0] = 'X' // Deposit must have copied
	body, ok := j.Result()
	if !ok || string(body) != `{"period":7}` {
		t.Fatalf("Result = %q, %v", body, ok)
	}
	// Second deposit is ignored.
	m.Deposit(j, []byte("other"))
	if body, _ := j.Result(); string(body) != `{"period":7}` {
		t.Fatalf("second Deposit overwrote: %q", body)
	}
}

func TestMaxActiveRejectsDetachedOnly(t *testing.T) {
	m := New(Options{MaxActive: 2})
	a, _ := m.Submit("search", "p", nil, nil, 0, true)
	b, _ := m.Submit("search", "p", nil, nil, 0, true)
	if _, err := m.Submit("search", "p", nil, nil, 0, true); err != ErrBusy {
		t.Fatalf("third detached submit err = %v, want ErrBusy", err)
	}
	// Inline submissions are exempt from the cap.
	if _, err := m.Submit("search", "search", nil, nil, 0, false); err != nil {
		t.Fatalf("inline submit rejected: %v", err)
	}
	m.Finish(a, nil, nil)
	if _, err := m.Submit("search", "p", nil, nil, 0, true); err != nil {
		t.Fatalf("submit after Finish rejected: %v", err)
	}
	m.Finish(b, nil, nil)
	mm := m.Metrics()
	if mm.Rejected != 1 || mm.ActiveCapacity != 2 {
		t.Fatalf("metrics = %+v", mm)
	}
}

func TestTerminalRetentionBound(t *testing.T) {
	const cap = 8
	m := New(Options{TerminalEntries: cap})
	// 10x oversubscription: the registry must stay bounded.
	var last *Job
	for i := 0; i < 10*cap; i++ {
		j, err := m.Submit("search", "p", nil, nil, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(j)
		m.Finish(j, []byte(fmt.Sprintf(`{"i":%d}`, i)), nil)
		last = j
	}
	mm := m.Metrics()
	if mm.Terminal != cap {
		t.Fatalf("terminal count = %d, want %d", mm.Terminal, cap)
	}
	if mm.Evictions != int64(10*cap-cap) {
		t.Fatalf("evictions = %d, want %d", mm.Evictions, 10*cap-cap)
	}
	// The newest job must still be resident.
	if _, ok := m.Get(last.ID()); !ok {
		t.Fatalf("newest job %s evicted", last.ID())
	}
}

func TestClockPrefersUnreferenced(t *testing.T) {
	m := New(Options{TerminalEntries: 2})
	a, _ := m.Submit("search", "p", nil, nil, 0, true)
	m.Finish(a, nil, nil)
	b, _ := m.Submit("search", "p", nil, nil, 0, true)
	m.Finish(b, nil, nil)
	// Touch a so its reference bit is hot, then age both with one insertion:
	// the hand clears a's bit but recycles b.
	m.Get(a.ID())
	c, _ := m.Submit("search", "p", nil, nil, 0, true)
	m.Finish(c, nil, nil)
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("hot entry a was evicted")
	}
	if _, ok := m.Get(b.ID()); ok {
		t.Fatal("cold entry b survived")
	}
}

// TestPolledJobSurvivesNextFinish pins the poll-then-fetch race: once every
// older terminal entry has been fetched, the next insert's sweep clears
// their bits and wraps round to the newest entry. A job a submitter polled
// while it ran must not be that victim.
func TestPolledJobSurvivesNextFinish(t *testing.T) {
	m := New(Options{TerminalEntries: 4})
	for i := 0; i < 3; i++ {
		j, _ := m.Submit("search", "p", nil, nil, 0, true)
		m.Finish(j, nil, nil)
		m.Get(j.ID())
	}
	a, _ := m.Submit("search", "p", nil, nil, 0, true)
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("active job a not found")
	}
	m.Finish(a, []byte(`{}`), nil)
	b, _ := m.Submit("search", "p", nil, nil, 0, true)
	m.Finish(b, nil, nil)
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("job a, polled while active, was evicted before its result was fetched")
	}
}

func TestPrefixAllocatorFreedOnEviction(t *testing.T) {
	m := New(Options{TerminalEntries: 1})
	for i := 0; i < 50; i++ {
		j, _ := m.Submit("search", fmt.Sprintf("p%d", i), nil, nil, 0, true)
		m.Finish(j, nil, nil)
	}
	m.mu.Lock()
	nseq := len(m.seq)
	m.mu.Unlock()
	if nseq > 1 {
		t.Fatalf("seq map holds %d prefixes, want <= 1 (evicted prefixes must be freed)", nseq)
	}
}

func TestIDCollisionAfterAllocatorReset(t *testing.T) {
	m := New(Options{TerminalEntries: 2})
	a, _ := m.Submit("search", "p", nil, nil, 0, true) // p-1
	b, _ := m.Submit("search", "p", nil, nil, 0, true) // p-2
	m.Finish(a, nil, nil)
	// Evict p-1 (only resident terminal when the ring overflows is forced by
	// filling with another prefix).
	x, _ := m.Submit("search", "q", nil, nil, 0, true)
	m.Finish(x, nil, nil) // ring now [p-1, q-1]
	y, _ := m.Submit("search", "q", nil, nil, 0, true)
	m.Finish(y, nil, nil) // evicts one of the ring entries
	// b (p-2) is still resident and non-terminal; whatever the allocator
	// state, new p IDs must not collide with it.
	c, _ := m.Submit("search", "p", nil, nil, 0, true)
	if c.ID() == b.ID() {
		t.Fatalf("ID collision: %s minted twice", c.ID())
	}
	m.Finish(b, nil, nil)
	m.Finish(c, nil, nil)
}

func TestSubmitTimeoutCancelsContext(t *testing.T) {
	m := New(Options{})
	j, _ := m.Submit("search", "t", nil, nil, 5*time.Millisecond, true)
	select {
	case <-j.Context().Done():
	case <-time.After(2 * time.Second):
		t.Fatal("job context did not expire")
	}
	m.Finish(j, nil, &Failure{Status: 503, Code: "unavailable", Message: "timeout"})
	if j.State() != StateFailed {
		t.Fatalf("state = %q", j.State())
	}
}

func TestList(t *testing.T) {
	m := New(Options{})
	a, _ := m.Submit("search", "s", nil, nil, 0, true)
	b, _ := m.Submit("sweep", "w", nil, nil, 0, true)
	c, _ := m.Submit("search", "s", nil, nil, 0, true)
	m.Finish(a, nil, nil)
	m.Start(b)
	all := m.List("", "")
	if len(all) != 3 {
		t.Fatalf("List all = %d jobs", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID() >= all[i].ID() {
			t.Fatalf("List not sorted: %s before %s", all[i-1].ID(), all[i].ID())
		}
	}
	if got := m.List("search", ""); len(got) != 2 {
		t.Fatalf("List(search) = %d jobs", len(got))
	}
	if got := m.List("", StateRunning); len(got) != 1 || got[0] != b {
		t.Fatalf("List(running) = %v", got)
	}
	if got := m.List("sweep", StateDone); len(got) != 0 {
		t.Fatalf("List(sweep,done) = %d jobs", len(got))
	}
	m.Finish(b, nil, nil)
	m.Finish(c, nil, nil)
}

type recordingPersister struct {
	mu        sync.Mutex
	submitted []string
	terminal  []string
	evicted   []string
}

func (p *recordingPersister) Submitted(j *Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.submitted = append(p.submitted, j.ID())
}

func (p *recordingPersister) Terminal(j *Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.terminal = append(p.terminal, j.ID())
}

func (p *recordingPersister) Evicted(j *Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.evicted = append(p.evicted, j.ID())
}

func TestPersisterObservesLifecycle(t *testing.T) {
	p := &recordingPersister{}
	m := New(Options{Persister: p})
	j, _ := m.Submit("search", "p", nil, nil, 0, true)
	m.Finish(j, nil, nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.submitted) != 1 || p.submitted[0] != j.ID() {
		t.Fatalf("submitted = %v", p.submitted)
	}
	if len(p.terminal) != 1 || p.terminal[0] != j.ID() {
		t.Fatalf("terminal = %v", p.terminal)
	}
}

func TestProgressCounters(t *testing.T) {
	m := New(Options{})
	j, _ := m.Submit("search", "p", nil, nil, 0, false)
	j.Progress().Nodes.Add(10)
	j.Progress().Leaves.Add(3)
	j.Progress().PointsTotal.Store(25)
	if j.Progress().Nodes.Load() != 10 || j.Progress().Leaves.Load() != 3 || j.Progress().PointsTotal.Load() != 25 {
		t.Fatal("progress counters did not round-trip")
	}
	m.Finish(j, nil, nil)
}

// TestStorm drives submit/cancel/poll/finish concurrently; run with -race.
func TestStorm(t *testing.T) {
	m := New(Options{TerminalEntries: 16, MaxActive: 32})
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	ids := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j, err := m.Submit("search", fmt.Sprintf("w%d", w), nil, nil, 0, true)
				if err != nil {
					continue // ErrBusy under load is expected
				}
				ids <- j.ID()
				m.Start(j)
				if i%3 == 0 {
					m.Cancel(j.ID())
				}
				m.Finish(j, []byte("{}"), nil)
			}
		}(w)
	}
	var pollers sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				case id := <-ids:
					if j, ok := m.Get(id); ok {
						_ = j.State()
						_, _ = j.Result()
						_ = j.Progress().Nodes.Load()
					}
					m.List("search", "")
					m.Metrics()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	mm := m.Metrics()
	if mm.Active != 0 {
		t.Fatalf("active = %d after storm", mm.Active)
	}
	if mm.Terminal > 16 {
		t.Fatalf("terminal = %d exceeds bound", mm.Terminal)
	}
	if mm.Done+mm.Failed+mm.Canceled+mm.Rejected != int64(workers*perWorker) {
		t.Fatalf("metrics do not add up: %+v", mm)
	}
}

// TestResumeAndRehydrate covers the restart path: a rehydrated terminal job
// answers result polls under its original ID, a resumed job re-registers
// under its original ID, and the prefix allocator never re-mints either.
func TestResumeAndRehydrate(t *testing.T) {
	m := New(Options{})
	if _, err := m.Rehydrate("h-3", "search", StateDone, []byte(`{"ok":true}`), nil); err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get("h-3")
	if !ok || j.State() != StateDone {
		t.Fatalf("rehydrated job missing or not done: %v %v", ok, j.State())
	}
	if body, ok := j.Result(); !ok || string(body) != `{"ok":true}` {
		t.Fatalf("rehydrated result = %q, %v", body, ok)
	}
	if _, err := m.Rehydrate("h-3", "search", StateDone, nil, nil); err == nil {
		t.Fatal("duplicate rehydrate accepted")
	}
	if _, err := m.Rehydrate("noseq", "search", StateDone, nil, nil); err == nil {
		t.Fatal("malformed id accepted")
	}
	if _, err := m.Rehydrate("h-4", "search", StateRunning, nil, nil); err == nil {
		t.Fatal("non-terminal rehydrate accepted")
	}
	if _, err := m.Rehydrate("h-6", "search", StateCanceled, []byte(`{"partial":true}`), nil); err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get("h-6"); j.State() != StateCanceled {
		t.Fatalf("canceled rehydrate became %v", j.State())
	}
	f := &Failure{Status: 422, Code: "invalid_request", Message: "boom"}
	if _, err := m.Rehydrate("h-7", "sweep", StateFailed, nil, f); err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get("h-7"); j.State() != StateFailed || j.Failure().Code != "invalid_request" {
		t.Fatalf("rehydrated failure lost: %v %+v", j.State(), j.Failure())
	}

	r, err := m.Resume("h-5", "search", []byte(`body`), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID() != "h-5" || r.State() != StatePending || !r.Detached() || string(r.Body()) != "body" {
		t.Fatalf("resumed job wrong: %v %v %v %q", r.ID(), r.State(), r.Detached(), r.Body())
	}
	if _, err := m.Resume("h-5", "search", nil, nil, 0); err == nil {
		t.Fatal("duplicate resume accepted")
	}
	// The allocator must have advanced past every injected sequence number.
	next, err := m.Submit("search", "h", nil, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "h-8" {
		t.Fatalf("next minted id = %q, want h-8 (allocator past rehydrated 7)", next.ID())
	}
	m.Finish(r, nil, nil)
	m.Finish(next, nil, nil)
}

// TestEvictedHookFires: recycling a terminal job out of a full CLOCK ring
// must offer the victim to the Persister so its durable record is dropped.
func TestEvictedHookFires(t *testing.T) {
	p := &recordingPersister{}
	m := New(Options{Persister: p, TerminalEntries: 2, MaxActive: 8})
	for i := 0; i < 3; i++ {
		j, err := m.Submit("search", fmt.Sprintf("e%d", i), nil, nil, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		m.Finish(j, nil, nil)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.evicted) != 1 || p.evicted[0] != "e0-1" {
		t.Fatalf("evicted = %v, want [e0-1]", p.evicted)
	}
}
