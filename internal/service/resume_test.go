package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/bnb"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/sched"
)

// resumableSearch is a bnb search small enough to finish in test time but
// big enough that the greedy warm start does not prune the whole tree: on
// the two-speed platform of fixture.TwoSpeedPlatform the frontier survives with over a
// hundred roots, so an interrupted checkpoint has work both to replay and
// to re-execute.
func resumableSearch(t *testing.T) SearchRequest {
	t.Helper()
	return SearchRequest{
		Pipeline: fixture.Pipeline(8),
		Platform: fixture.TwoSpeedPlatform(16),
		Model:    "overlap",
		Algo:     "bnb",
	}
}

// waitRecord polls the checkpoint store for a record satisfying accept.
// Needed because the persister's terminal write lands after the job's
// in-memory state flips (a crash in that window costs one replay, by
// design), so an HTTP poller can observe "done" before the disk does.
func waitRecord(t *testing.T, m *checkpoint.Manager, id string, accept func(checkpoint.Record) bool) checkpoint.Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var rec checkpoint.Record
		err := m.Store().Load(id, &rec)
		if err == nil && accept(rec) {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("record %q never reached the expected state: %+v (err %v)", id, rec, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// uninterruptedResult runs the search job on a checkpoint-free server and
// returns its result bytes and job ID.
func uninterruptedResult(t *testing.T, body []byte) (want []byte, jobID string) {
	t.Helper()
	jobID = JobKeyPrefix(body) + "-1"
	_, ref := newTestServer(t, Options{Workers: 2})
	j := submitJob(t, ref.URL, body)
	if j.ID != jobID {
		t.Fatalf("reference job ID %q, want %q", j.ID, jobID)
	}
	pollJob(t, ref.URL, jobID, terminal)
	want, status := do(t, http.MethodGet, ref.URL+"/v1/jobs/"+jobID+"/result")
	if status != http.StatusOK {
		t.Fatalf("reference result: status %d body %s", status, want)
	}
	return want, jobID
}

// captureRoots runs search in process with opts and returns every root it
// finished, as the persister would have recorded them, and the frontier
// size.
func captureRoots(t *testing.T, search SearchRequest, opts bnb.Options) (map[int]bnb.Finished, int) {
	t.Helper()
	var mu sync.Mutex
	captured := map[int]bnb.Finished{}
	frontier := 0
	opts.OnRootDone = func(f int, done bnb.Finished) {
		mu.Lock()
		captured[done.Root.Index] = done
		frontier = f
		mu.Unlock()
	}
	eng := engine.New(engine.Options{Workers: 2})
	if _, err := sched.BranchAndBoundEngineOpts(t.Context(), eng, search.Pipeline, search.Platform, model.Overlap, opts); err != nil {
		t.Fatal(err)
	}
	if frontier < 4 || len(captured) != frontier {
		t.Fatalf("captured %d of %d roots; the fixture needs a real frontier", len(captured), frontier)
	}
	return captured, frontier
}

// resumeFrom writes a running checkpoint record holding done (the "crash"),
// resumes it on a fresh server (the "restarted process") and returns the
// resumed job's result bytes and its terminal record, once on disk.
func resumeFrom(t *testing.T, body []byte, jobID string, done map[int]bnb.Finished, frontier int) ([]byte, checkpoint.Record) {
	t.Helper()
	sum := sha256.Sum256(body)
	rec := checkpoint.Record{
		JobID:     jobID,
		Kind:      "search",
		Body:      body,
		BodyHash:  hex.EncodeToString(sum[:]),
		State:     string(jobs.StateRunning),
		Frontier:  frontier,
		DoneRoots: checkpoint.Bitmap(done, frontier),
		Roots:     done,
	}
	dir := t.TempDir()
	seed, err := checkpoint.NewManager(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Store().Save(rec.JobID, rec); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{Workers: 2, CheckpointDir: dir})
	if err := s.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	resumed, rehydrated := s.ResumeJobs()
	if resumed != 1 || rehydrated != 0 {
		t.Fatalf("ResumeJobs = (%d, %d), want (1, 0)", resumed, rehydrated)
	}
	fin := pollJob(t, ts.URL, jobID, terminal)
	if fin.State != "done" {
		t.Fatalf("resumed job finished %q (error %+v), want done", fin.State, fin.Error)
	}
	got, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/result")
	if status != http.StatusOK {
		t.Fatalf("resumed result: status %d body %s", status, got)
	}
	after := waitRecord(t, s.ckpt, jobID, func(r checkpoint.Record) bool { return r.State == "done" })
	return got, after
}

// TestCheckpointResumeByteIdentical is the kill-mid-job acceptance test: a
// bnb job interrupted after finishing part of its frontier is resumed on a
// fresh server (the "restarted process"), re-executes only from its stored
// body plus the finished-root replay, and answers bytes identical to the
// same job run uninterrupted on a server that never crashed.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	search := resumableSearch(t)
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &search})
	want, jobID := uninterruptedResult(t, body)

	// Capture the per-root results of the same deterministic search — the
	// exact plan the server executes for this body — and keep roughly half,
	// exactly as the persister would have left them mid-run.
	captured, frontier := captureRoots(t, search, bnb.Options{})
	done := map[int]bnb.Finished{}
	for idx, d := range captured {
		if idx%2 == 0 {
			done[idx] = d
		}
	}
	got, after := resumeFrom(t, body, jobID, done, frontier)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\nresumed: %s\nsolo:    %s", got, want)
	}

	// The terminal record replaced the working set on disk: state done, the
	// result bytes retained, the root set gone.
	if !bytes.Equal(after.Result, want) || len(after.Roots) != 0 {
		t.Fatalf("terminal record after resume = %+v", after)
	}
}

// TestCheckpointResumeBackendAlias: a job whose body names the deprecated
// "howard" backend, as records written by older servers may, keeps the ID
// its body hashes to and resumes from its checkpoint byte-identical to an
// uninterrupted run.
func TestCheckpointResumeBackendAlias(t *testing.T) {
	search := resumableSearch(t)
	search.Backend = "howard"
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &search})
	want, jobID := uninterruptedResult(t, body)
	captured, frontier := captureRoots(t, search, bnb.Options{})
	done := map[int]bnb.Finished{}
	for idx, d := range captured {
		if idx%2 == 1 {
			done[idx] = d
		}
	}
	got, _ := resumeFrom(t, body, jobID, done, frontier)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed howard job differs from uninterrupted run:\nresumed: %s\nsolo:    %s", got, want)
	}
}

// TestCheckpointResumeOfAnotherPlanReruns: a job checkpointed by a build
// that planned a different frontier (other bounds expand other roots under
// the same indices) is resumed by this build. Its recorded roots must not
// stand in for this plan's roots; they re-run, and the answer is
// byte-identical to an uninterrupted run instead of merging subtrees that
// were never explored.
func TestCheckpointResumeOfAnotherPlanReruns(t *testing.T) {
	search := resumableSearch(t)
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &search})
	want, jobID := uninterruptedResult(t, body)

	_, current := captureRoots(t, search, bnb.Options{})
	// A smaller frontier target stands in for the other build's plan: the
	// same instance, the same warm start, a different set of roots.
	stale, frontier := captureRoots(t, search, bnb.Options{FrontierTarget: 8})
	if frontier == current {
		t.Fatalf("both plans have %d roots; the fixture needs two different frontiers", frontier)
	}
	got, _ := resumeFrom(t, body, jobID, stale, frontier)
	if !bytes.Equal(got, want) {
		t.Fatalf("resuming another plan's roots changed the answer:\nresumed: %s\nsolo:    %s", got, want)
	}
}

// TestCheckpointLifecycleOverHTTP drives a detached job on a checkpointed
// server and asserts the durable record tracks the job through submission
// and completion — and that a second server started on the same directory
// rehydrates the terminal answer for pollers.
func TestCheckpointLifecycleOverHTTP(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 2, CheckpointDir: dir})
	search := resumableSearch(t)
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &search})
	j := submitJob(t, ts.URL, body)
	pollJob(t, ts.URL, j.ID, terminal)
	want, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result: status %d body %s", status, want)
	}
	rec := waitRecord(t, s.ckpt, j.ID, func(r checkpoint.Record) bool { return r.State == "done" })
	if !bytes.Equal(rec.Result, want) || rec.BodyHash == "" {
		t.Fatalf("terminal record = %+v", rec)
	}
	if rec.Stats == nil || rec.Stats.Nodes == 0 {
		t.Fatalf("terminal record froze no stats: %+v", rec.Stats)
	}
	wantStatus, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID)
	if status != http.StatusOK {
		t.Fatalf("status: %d body %s", status, wantStatus)
	}

	// "Restart": a fresh server over the same directory answers the result
	// under the original ID without re-running anything.
	s2, ts2 := newTestServer(t, Options{Workers: 2, CheckpointDir: dir})
	resumed, rehydrated := s2.ResumeJobs()
	if resumed != 0 || rehydrated != 1 {
		t.Fatalf("ResumeJobs = (%d, %d), want (0, 1)", resumed, rehydrated)
	}
	replay, status := do(t, http.MethodGet, ts2.URL+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusOK || !bytes.Equal(replay, want) {
		t.Fatalf("rehydrated result: status %d\nreplayed: %s\noriginal: %s", status, replay, want)
	}
	fin := pollJob(t, ts2.URL, j.ID, terminal)
	if fin.State != "done" {
		t.Fatalf("rehydrated job state %q, want done", fin.State)
	}
	// The status document — terminal progress counters included — survives
	// the restart byte-for-byte, not just the result.
	replayStatus, status := do(t, http.MethodGet, ts2.URL+"/v1/jobs/"+j.ID)
	if status != http.StatusOK || !bytes.Equal(replayStatus, wantStatus) {
		t.Fatalf("rehydrated status differs:\nreplayed: %s\noriginal: %s", replayStatus, wantStatus)
	}
	// A failed record replays its failure verbatim.
	if _, err := s2.jobs.Rehydrate("feedfeedfeedfeed-1", "search", jobs.StateFailed, nil,
		&jobs.Failure{Status: 422, Code: "invalid_request", Message: "no"}); err != nil {
		t.Fatal(err)
	}
	errBody, status := do(t, http.MethodGet, ts2.URL+"/v1/jobs/feedfeedfeedfeed-1/result")
	if status != 422 {
		t.Fatalf("rehydrated failure: status %d body %s", status, errBody)
	}
}

// TestSubtreeEndpointMatchesLocalExecutor: a root shipped over the wire to
// /v1/internal/subtree answers the exact SubResult the in-process executor
// produces — the property that makes distributed deterministic search
// bit-identical to solo.
func TestSubtreeEndpointMatchesLocalExecutor(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	search := resumableSearch(t)
	roots, _, err := bnb.Frontier(t.Context(), search.Pipeline, search.Platform, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) < 2 {
		t.Fatalf("frontier of %d roots is no fixture", len(roots))
	}
	exec, err := bnb.NewLocalExecutor(engine.New(engine.Options{Workers: 2}),
		search.Pipeline, search.Platform, model.Overlap, bnb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range roots[:2] {
		want, err := exec.RunRoot(t.Context(), root, "")
		if err != nil {
			t.Fatal(err)
		}
		var resp SubtreeResponse
		postJSON(t, ts.URL+"/v1/internal/subtree", SubtreeRequest{
			Pipeline: search.Pipeline,
			Platform: search.Platform,
			Model:    "overlap",
			Root:     root,
		}, &resp)
		if !bytes.Equal(mustMarshal(t, resp.Result), mustMarshal(t, want)) {
			t.Fatalf("root %d over the wire:\ngot:  %+v\nwant: %+v", root.Index, resp.Result, want)
		}
	}
	// Malformed descriptors are the caller's fault: 400, not 500.
	bad := roots[0]
	bad.LB = "not-a-rational"
	body, status := postJSONStatus(t, ts.URL+"/v1/internal/subtree", SubtreeRequest{
		Pipeline: search.Pipeline, Platform: search.Platform, Model: "overlap", Root: bad,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("malformed root: status %d body %s", status, body)
	}
	if body, status := postJSONStatus(t, ts.URL+"/v1/internal/subtree", SubtreeRequest{Model: "overlap"}); status != http.StatusBadRequest {
		t.Fatalf("missing instance: status %d body %s", status, body)
	}
}

// TestDistributedFieldSolo: a solo node accepts both distributed modes for
// algo bnb — racing returns the same proven optimum as deterministic — and
// refuses the field on heuristic algos.
func TestDistributedFieldSolo(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	search := resumableSearch(t)

	var det, race SearchResponse
	search.Distributed = "deterministic"
	postJSON(t, ts.URL+"/v1/search", search, &det)
	search.Distributed = "racing"
	postJSON(t, ts.URL+"/v1/search", search, &race)
	if det.Proven == nil || !*det.Proven || race.Proven == nil || !*race.Proven {
		t.Fatalf("distributed searches not proven: det %+v race %+v", det.Proven, race.Proven)
	}
	if det.Period != race.Period {
		t.Fatalf("racing period %s differs from deterministic %s", race.Period, det.Period)
	}

	search.Distributed = "sideways"
	if body, status := postJSONStatus(t, ts.URL+"/v1/search", search); status != http.StatusBadRequest {
		t.Fatalf("unknown distributed mode: status %d body %s", status, body)
	}
	search.Distributed = "deterministic"
	search.Algo = "greedy"
	if body, status := postJSONStatus(t, ts.URL+"/v1/search", search); status != http.StatusBadRequest {
		t.Fatalf("distributed greedy: status %d body %s", status, body)
	}
}

// TestCheckpointDirUnusable: a server asked to be durable on a directory it
// cannot create reports the failure instead of running undurable.
func TestCheckpointDirUnusable(t *testing.T) {
	s := NewServer(Options{Workers: 1, CheckpointDir: "/dev/null/not-a-dir"})
	if s.CheckpointErr() == nil {
		t.Fatal("unusable checkpoint dir accepted silently")
	}
	if resumed, rehydrated := s.ResumeJobs(); resumed != 0 || rehydrated != 0 {
		t.Fatalf("ResumeJobs on a broken dir = (%d, %d)", resumed, rehydrated)
	}
}

// TestResumeSweepRerunsFully: an interrupted sweep resumes by re-running
// from its stored body (its response carries wall-clock timings, so there
// is no splice) and still terminates with a well-formed answer.
func TestResumeSweepRerunsFully(t *testing.T) {
	body := mustMarshal(t, JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{Seed: 4, Pairs: [][]int{{2, 2}, {2, 3}}}})
	jobID := JobKeyPrefix(body) + "-1"
	sum := sha256.Sum256(body)
	rec := checkpoint.Record{
		JobID:    jobID,
		Kind:     "sweep",
		Body:     body,
		BodyHash: hex.EncodeToString(sum[:]),
		State:    string(jobs.StateRunning),
	}
	dir := t.TempDir()
	seed, err := checkpoint.NewManager(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Store().Save(rec.JobID, rec); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 2, CheckpointDir: dir})
	if resumed, _ := s.ResumeJobs(); resumed != 1 {
		t.Fatalf("sweep resume count %d, want 1", resumed)
	}
	fin := pollJob(t, ts.URL, jobID, terminal)
	if fin.State != "done" {
		t.Fatalf("resumed sweep finished %q (error %+v)", fin.State, fin.Error)
	}
	result, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/result")
	if status != http.StatusOK {
		t.Fatalf("resumed sweep result: status %d body %s", status, result)
	}
	var sweep SweepResponse
	if err := json.Unmarshal(result, &sweep); err != nil || len(sweep.Points) != 2 {
		t.Fatalf("resumed sweep answered %s (err %v), want 2 points", result, err)
	}
	// Wait for the terminal write before the TempDir cleanup runs — it lands
	// after the in-memory state flips.
	waitRecord(t, s.ckpt, jobID, func(r checkpoint.Record) bool { return r.State == "done" })
}
