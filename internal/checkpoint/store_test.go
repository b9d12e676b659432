package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bnb"
)

type payload struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Blob  string `json:"blob"`
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "job-1", Count: 42, Blob: strings.Repeat("x", 1000)}
	if err := s.Save("job-1", want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Load("job-1", &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "job-1" {
		t.Fatalf("List = %v", names)
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("job-1", &got); err == nil {
		t.Fatal("Load succeeded after Delete")
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestTruncatedRecordsNeverLoad is the crash-safety property test: for a
// real record, EVERY strict prefix of the on-disk bytes must fail to load —
// a torn final write can never be mistaken for a checkpoint. Flipped bytes
// (bit rot, partially reused sectors) must fail the digest too.
func TestTruncatedRecordsNeverLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		JobID:    "abc12345deadbeef-1",
		Kind:     "search",
		Body:     []byte(`{"algo":"bnb"}`),
		State:    "running",
		Frontier: 3,
		Roots: map[int]bnb.Finished{
			0: {Root: bnb.Root{Index: 0, LB: "1"}, Result: bnb.SubResult{Complete: true, BestPeriod: "7/3", BestReplicas: [][]int{{0}, {1, 2}}}},
			2: {Root: bnb.Root{Index: 2, LB: "1"}, Result: bnb.SubResult{Complete: true}},
		},
	}
	rec.DoneRoots = Bitmap(rec.Roots, rec.Frontier)
	if err := s.Save(rec.JobID, rec); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, rec.JobID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var ok Record
	if err := s.Load(rec.JobID, &ok); err != nil {
		t.Fatalf("pristine record failed to load: %v", err)
	}

	target := filepath.Join(dir, rec.JobID+".json")
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(target, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		var out Record
		if err := s.Load(rec.JobID, &out); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", n, len(full))
		}
	}
	// Corruption inside the payload must fail the digest check.
	for _, pos := range []int{len(full) / 4, len(full) / 2, len(full) - 2} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0x20
		if err := os.WriteFile(target, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		var out Record
		if err := s.Load(rec.JobID, &out); err == nil {
			t.Fatalf("byte flip at %d loaded successfully", pos)
		}
	}
	// Restore and confirm the store recovers.
	if err := os.WriteFile(target, full, 0o644); err != nil {
		t.Fatal(err)
	}
	var out Record
	if err := s.Load(rec.JobID, &out); err != nil {
		t.Fatalf("restored record failed to load: %v", err)
	}
	if out.DoneRoots != rec.DoneRoots || len(out.Roots) != 2 || out.Roots[0].Result.BestPeriod != "7/3" || out.Roots[2].Root.Index != 2 {
		t.Fatalf("restored record lost data: %+v", out)
	}
}

// TestTempLeftoversAreIgnored: a crash between temp-file creation and
// rename leaves *.tmp* debris; List must skip it, Resumable must survive
// it, and a later Save of the same name must still land.
func TestTempLeftoversAreIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("good-1", payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	// Simulated crash debris: a half-written temp for an existing record and
	// one for a record that never completed at all.
	for _, junk := range []string{"good-1.json.tmp123", "half-1.json.tmp987"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte(`{"v":1,"sum":"`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "good-1" {
		t.Fatalf("List with temp debris = %v, want [good-1]", names)
	}
	if err := s.Save("good-1", payload{Name: "newer"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Load("good-1", &got); err != nil || got.Name != "newer" {
		t.Fatalf("Save over debris: %+v, %v", got, err)
	}
}

// TestResumableSkipsCorruptRecords: one torn record must not poison the
// registry scan.
func TestResumableSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := Record{JobID: "aaaa-1", Kind: "search", State: "done", Result: []byte(`{}`)}
	if err := m.Store().Save(good.JobID, good); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bbbb-1.json"), []byte(`{"v":1,"sum":"00","rec":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A record whose name does not match its JobID is also refused.
	if err := m.Store().Save("cccc-1", Record{JobID: "dddd-9", State: "done"}); err != nil {
		t.Fatal(err)
	}
	recs := m.Resumable()
	if len(recs) != 1 || recs[0].JobID != "aaaa-1" {
		t.Fatalf("Resumable = %+v, want just aaaa-1", recs)
	}
}
