package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bnb"
	"repro/internal/jobs"
)

// TestManagerLifecycle walks a detached job through the persister: birth
// writes a running record, RootDone accumulates finished roots with the
// incumbent, Terminal swaps the working set for the final body, and the
// CLOCK eviction drops the file.
func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(t.TempDir(), 0) // interval 0: flush every root
	if err != nil {
		t.Fatal(err)
	}
	jm := jobs.New(jobs.Options{Persister: m, TerminalEntries: 1})
	body := []byte(`{"kind":"search","request":{"algo":"bnb"}}`)
	j, err := jm.Submit("search", "cafe0123cafe0123", body, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID()

	var rec Record
	if err := m.Store().Load(id, &rec); err != nil {
		t.Fatalf("no record after submit: %v", err)
	}
	if rec.JobID != id || rec.State != "running" || string(rec.Body) != string(body) || rec.BodyHash == "" {
		t.Fatalf("submit record = %+v", rec)
	}

	m.RootDone(id, 4, bnb.Finished{Root: bnb.Root{Index: 2}, Result: bnb.SubResult{Complete: true, BestPeriod: "5/2", BestReplicas: [][]int{{0}, {1}}}})
	m.RootDone(id, 4, bnb.Finished{Root: bnb.Root{Index: 0}, Result: bnb.SubResult{Complete: true, BestPeriod: "9/4", BestReplicas: [][]int{{1}, {0}}}})
	m.RootDone(id, 4, bnb.Finished{Root: bnb.Root{Index: 1}, Result: bnb.SubResult{Complete: true}})
	if err := m.Store().Load(id, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Roots) != 3 || rec.Frontier != 4 {
		t.Fatalf("root record = %+v", rec)
	}
	if rec.DoneRoots != Bitmap(rec.Roots, 4) || rec.DoneRoots != "07" {
		t.Fatalf("bitmap = %q, want 07", rec.DoneRoots)
	}
	if rec.Incumbent == nil || rec.Incumbent.Period != "9/4" {
		t.Fatalf("incumbent = %+v, want period 9/4", rec.Incumbent)
	}

	recs := m.Resumable()
	if len(recs) != 1 || recs[0].State != "running" || len(recs[0].Roots) != 3 {
		t.Fatalf("Resumable mid-run = %+v", recs)
	}

	jm.Finish(j, []byte(`{"period":"9/4"}`), nil)
	rec = Record{}
	if err := m.Store().Load(id, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "done" || string(rec.Result) != `{"period":"9/4"}` || rec.Roots != nil {
		t.Fatalf("terminal record = %+v", rec)
	}

	// A second terminal job evicts the first from the 1-slot ring — and from
	// disk.
	j2, err := jm.Submit("search", "beef4567beef4567", body, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	jm.Finish(j2, nil, &jobs.Failure{Status: 422, Code: "invalid_request", Message: "no"})
	rec = Record{}
	if err := m.Store().Load(id, &rec); err == nil {
		t.Fatalf("evicted job still on disk: %+v", rec)
	}
	rec = Record{}
	if err := m.Store().Load(j2.ID(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "failed" || rec.Failure == nil || rec.Failure.Code != "invalid_request" {
		t.Fatalf("failed record = %+v", rec)
	}
}

// TestBitmapMismatchDropsRoots: a record whose bitmap disagrees with its
// root set resumes from scratch rather than trusting either half.
func TestBitmapMismatchDropsRoots(t *testing.T) {
	m, err := NewManager(t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		JobID:     "feed0000feed0000-1",
		Kind:      "search",
		State:     "running",
		Frontier:  8,
		Roots:     map[int]bnb.Finished{1: {Result: bnb.SubResult{Complete: true}}},
		DoneRoots: "ff", // claims all eight
	}
	if err := m.Store().Save(rec.JobID, rec); err != nil {
		t.Fatal(err)
	}
	recs := m.Resumable()
	if len(recs) != 1 {
		t.Fatalf("Resumable = %+v", recs)
	}
	if recs[0].Roots != nil || recs[0].Incumbent != nil {
		t.Fatalf("mismatched bitmap kept roots: %+v", recs[0])
	}
}

// TestBodyHashMismatchSkipsRecord: a record whose stored body no longer
// hashes to its recorded digest must not resume at all — re-running those
// bytes would answer a different request under the original job ID.
func TestBodyHashMismatchSkipsRecord(t *testing.T) {
	m, err := NewManager(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		JobID:    "0123456789abcdef-1",
		Kind:     "search",
		State:    "running",
		Body:     []byte(`{"kind":"search"}`),
		BodyHash: "deadbeef", // wrong on purpose
	}
	if err := m.Store().Save(rec.JobID, rec); err != nil {
		t.Fatal(err)
	}
	if recs := m.Resumable(); len(recs) != 0 {
		t.Fatalf("hash-mismatched record resumed: %+v", recs)
	}
}

// TestAdoptResumedJobKeepsCheckpointing: Adopt is the restart counterpart
// of Submitted — RootDone against the adopted ID writes through with the
// replayed roots folded in, a worse root never displaces the incumbent,
// and an ID the manager never saw is a no-op rather than a file.
func TestAdoptResumedJobKeepsCheckpointing(t *testing.T) {
	m, err := NewManager(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const id = "f00d0123f00d0123-1"
	m.Adopt(Record{
		JobID: id, Kind: "search", State: "running",
		Frontier: 4,
		Roots:    map[int]bnb.Finished{0: {Result: bnb.SubResult{Complete: true}}},
	})
	m.RootDone(id, 4, bnb.Finished{Root: bnb.Root{Index: 3}, Result: bnb.SubResult{Complete: true, BestPeriod: "7/3", BestReplicas: [][]int{{0}, {1}}}})
	m.RootDone(id, 4, bnb.Finished{Root: bnb.Root{Index: 2}, Result: bnb.SubResult{Complete: true, BestPeriod: "8/3", BestReplicas: [][]int{{1}, {0}}}})
	var rec Record
	if err := m.Store().Load(id, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Roots) != 3 || rec.DoneRoots != "0d" {
		t.Fatalf("adopted record = %+v", rec)
	}
	if rec.Incumbent == nil || rec.Incumbent.Period != "7/3" {
		t.Fatalf("worse root displaced the incumbent: %+v", rec.Incumbent)
	}

	m.RootDone("aaaa0000aaaa0000-9", 2, bnb.Finished{Root: bnb.Root{Index: 0}, Result: bnb.SubResult{Complete: true}})
	if err := m.Store().Load("aaaa0000aaaa0000-9", &rec); err == nil {
		t.Fatalf("RootDone for an unknown job wrote a record: %+v", rec)
	}

	// Inline (non-detached) jobs die with their request: no birth record,
	// and their terminal hook finds nothing to persist.
	jm := jobs.New(jobs.Options{Persister: m})
	j, err := jm.Submit("search", "beefbeefbeefbeef", []byte(`{}`), nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	jm.Finish(j, []byte(`{}`), nil)
	if err := m.Store().Load(j.ID(), &rec); err == nil {
		t.Fatalf("inline job left a checkpoint: %+v", rec)
	}
}

// TestStoreErrorPaths pins the constructor and mutation error surfaces:
// an empty directory is refused, a directory that is actually a file is
// refused, an unencodable record is refused, and deleting a record that
// never existed is not an error.
func TestStoreErrorPaths(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(plain, 0); err == nil {
		t.Fatal("file-as-directory accepted")
	}
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if err := s.Save("bad", func() {}); err == nil {
		t.Fatal("unencodable record accepted")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("deleting a missing record: %v", err)
	}
}

// TestLessPeriodUnparseable: garbage period strings never win a
// comparison — an unparseable candidate loses, an unparseable incumbent
// is always replaced.
func TestLessPeriodUnparseable(t *testing.T) {
	if lessPeriod("garbage", "1/2") {
		t.Fatal("unparseable candidate won")
	}
	if !lessPeriod("1/2", "garbage") {
		t.Fatal("parseable candidate lost to an unparseable incumbent")
	}
	if lessPeriod("3/2", "1/2") {
		t.Fatal("3/2 < 1/2")
	}
	if !lessPeriod("1/3", "1/2") {
		t.Fatal("1/3 >= 1/2")
	}
}

// TestIntervalBatchesWrites: with a long interval, root completions stay in
// memory between flushes; only the boundaries write through.
func TestIntervalBatchesWrites(t *testing.T) {
	m, err := NewManager(t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	jm := jobs.New(jobs.Options{Persister: m})
	j, err := jm.Submit("search", "dead0123dead0123", []byte(`{}`), nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	m.RootDone(j.ID(), 2, bnb.Finished{Root: bnb.Root{Index: 0}, Result: bnb.SubResult{Complete: true}})
	var rec Record
	if err := m.Store().Load(j.ID(), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Roots) != 0 {
		t.Fatalf("root flushed before interval: %+v", rec)
	}
	jm.Finish(j, []byte(`{}`), nil)
	rec = Record{}
	if err := m.Store().Load(j.ID(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "done" {
		t.Fatalf("terminal write missing: %+v", rec)
	}
}
