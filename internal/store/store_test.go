package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

func randomInstance(t testing.TB, rng *rand.Rand, reps []int) *model.Instance {
	t.Helper()
	inst, err := exper.RandomTimedInstance(rng, reps, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPutResolveRoundTrip(t *testing.T) {
	s := New(8)
	rng := rand.New(rand.NewSource(1))
	inst := randomInstance(t, rng, []int{2, 3})
	e, created, err := s.Put(inst)
	if err != nil || !created {
		t.Fatalf("Put: created=%v err=%v", created, err)
	}
	if e.ID() != ContentID(inst) || len(e.ID()) != 64 {
		t.Fatalf("ID %q is not the 64-hex content address %q", e.ID(), ContentID(inst))
	}
	got, ok := s.Resolve(e.ID())
	if !ok || got.Instance() != inst {
		t.Fatalf("Resolve: ok=%v inst=%p want %p", ok, got.Instance(), inst)
	}
	got.Release()
	if _, ok := s.Resolve("deadbeef"); ok {
		t.Fatal("unknown ID resolved")
	}
	m := s.Metrics()
	if m.Puts != 1 || m.Resolves != 1 || m.Misses != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestPutDeduplicatesByContent(t *testing.T) {
	s := New(8)
	rng := rand.New(rand.NewSource(2))
	inst := randomInstance(t, rng, []int{2, 2})
	first, created, err := s.Put(inst)
	if err != nil || !created {
		t.Fatalf("first Put: created=%v err=%v", created, err)
	}
	// A structurally identical instance built from the same times must land
	// on the same entry: the address is the content, not the pointer.
	clone, err := model.FromTimes(instTimes(inst))
	if err != nil {
		t.Fatal(err)
	}
	second, created, err := s.Put(clone)
	if err != nil || created {
		t.Fatalf("duplicate Put: created=%v err=%v", created, err)
	}
	if second != first {
		t.Fatal("duplicate registration produced a distinct entry")
	}
	if m := s.Metrics(); m.Puts != 1 || m.Dedups != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestDescriptionDocuments covers the pipeline and platform kinds: they
// register and resolve like instances, deduplicate by content, and their
// kind-tagged IDs never alias each other.
func TestDescriptionDocuments(t *testing.T) {
	s := New(0)
	if c := s.Metrics().Capacity; c != DefaultCapacity {
		t.Fatalf("capacity %d, want the default %d", c, DefaultCapacity)
	}
	pipe, err := pipeline.New([]int64{5, 7}, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.New([]int64{1, 2}, [][]int64{{0, 4}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pe, created, err := s.PutPipeline(pipe)
	if err != nil || !created || pe.ID() != PipelineID(pipe) {
		t.Fatalf("PutPipeline: id %s created=%v err=%v", pe.ID(), created, err)
	}
	le, created, err := s.PutPlatform(plat)
	if err != nil || !created || le.ID() != PlatformID(plat) {
		t.Fatalf("PutPlatform: id %s created=%v err=%v", le.ID(), created, err)
	}
	if pe.ID() == le.ID() || len(pe.ID()) != 64 {
		t.Fatalf("pipeline id %s and platform id %s", pe.ID(), le.ID())
	}
	if again, created, _ := s.PutPipeline(pipe); created || again != pe {
		t.Fatal("re-registered pipeline produced a distinct entry")
	}
	got, ok := s.Resolve(pe.ID())
	if !ok || got.Kind() != KindPipeline || got.Pipeline() != pipe || got.Platform() != nil || got.Instance() != nil {
		t.Fatalf("pipeline entry: ok=%v kind=%s", ok, got.Kind())
	}
	got.Release()
	got, ok = s.Resolve(le.ID())
	if !ok || got.Kind() != KindPlatform || got.Platform() != plat || got.Pipeline() != nil {
		t.Fatalf("platform entry: ok=%v kind=%s", ok, got.Kind())
	}
	got.Release()
	if m := s.Metrics(); m.Puts != 2 || m.Dedups != 1 || m.Pinned != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// instTimes copies an instance's timing tables (test helper for rebuilding a
// structurally identical instance).
func instTimes(inst *model.Instance) (comp [][]rat.Rat, comm [][][]rat.Rat) {
	n := inst.NumStages()
	comp = make([][]rat.Rat, n)
	for i := 0; i < n; i++ {
		comp[i] = make([]rat.Rat, inst.Replication(i))
		for a := range comp[i] {
			comp[i][a] = inst.CompTime(i, a)
		}
	}
	comm = make([][][]rat.Rat, n-1)
	for i := 0; i < n-1; i++ {
		comm[i] = make([][]rat.Rat, inst.Replication(i))
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, inst.Replication(i+1))
			for b := range comm[i][a] {
				comm[i][a][b] = inst.CommTime(i, a, b)
			}
		}
	}
	return comp, comm
}

func TestTaskKeysMatchEngine(t *testing.T) {
	s := New(4)
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(t, rng, []int{3, 2})
	e, _, err := s.Put(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range model.Models() {
		wantH, wantK := engine.CanonicalKey(engine.Task{Inst: inst, Model: cm})
		gotH, gotK := e.TaskKey(cm)
		if gotH != wantH || gotK != wantK {
			t.Fatalf("model %s: precomputed task key drifted from engine.CanonicalKey", cm)
		}
	}
}

func TestBoundHoldsAndClockEvicts(t *testing.T) {
	const capEntries = 4
	s := New(capEntries)
	rng := rand.New(rand.NewSource(4))
	ids := make([]string, 0, 3*capEntries)
	for i := 0; i < 3*capEntries; i++ {
		e, created, err := s.Put(randomInstance(t, rng, []int{2, 3}))
		if err != nil || !created {
			t.Fatalf("Put %d: created=%v err=%v", i, created, err)
		}
		ids = append(ids, e.ID())
		if m := s.Metrics(); m.Entries > capEntries {
			t.Fatalf("after %d puts: %d entries over capacity %d", i+1, m.Entries, capEntries)
		}
	}
	m := s.Metrics()
	if m.Entries != capEntries || m.Evictions != 2*capEntries || m.Puts != 3*capEntries {
		t.Fatalf("metrics %+v", m)
	}
	// The most recent registration is resident; the oldest was evicted.
	if _, ok := s.Resolve(ids[len(ids)-1]); !ok {
		t.Fatal("latest registration evicted")
	}
	if _, ok := s.Resolve(ids[0]); ok {
		t.Fatal("oldest registration survived 2x capacity of churn")
	}
}

// TestColdInsertEvictsUnresolvedEntry: registrations enter cold and only a
// resolve marks an entry as used, so when a full store takes a new
// registration the one entry nobody resolved is the victim, and every
// resolved entry keeps answering.
func TestColdInsertEvictsUnresolvedEntry(t *testing.T) {
	const capEntries, cold = 4, 2
	s := New(capEntries)
	rng := rand.New(rand.NewSource(8))
	var ids []string
	for i := 0; i < capEntries; i++ {
		e, _, err := s.Put(randomInstance(t, rng, []int{2, 3}))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID())
	}
	for i, id := range ids {
		if i == cold {
			continue
		}
		e, ok := s.Resolve(id)
		if !ok {
			t.Fatalf("entry %d did not resolve", i)
		}
		e.Release()
	}
	if _, created, err := s.Put(randomInstance(t, rng, []int{2, 3})); err != nil || !created {
		t.Fatalf("Put into a full store: created=%v err=%v", created, err)
	}
	for i, id := range ids {
		e, ok := s.Resolve(id)
		if i == cold {
			if ok {
				t.Fatal("the unresolved entry survived; a resolved one was evicted")
			}
			continue
		}
		if !ok {
			t.Fatalf("resolved entry %d was evicted", i)
		}
		e.Release()
	}
}

// TestResolveReleaseAllocFree: the by-ID hot path pins through the cache
// slot and allocates nothing.
func TestResolveReleaseAllocFree(t *testing.T) {
	s := New(4)
	e, _, err := s.Put(randomInstance(t, rand.New(rand.NewSource(9)), []int{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	id := e.ID()
	allocs := testing.AllocsPerRun(100, func() {
		if got, ok := s.Resolve(id); ok {
			got.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("Resolve+Release allocates %.1f times", allocs)
	}
}

// TestPinnedEntriesSurviveEviction is the pinning contract: an entry held by
// an in-flight request is never recycled, no matter how much registration
// pressure arrives, while unpinned neighbors churn freely.
func TestPinnedEntriesSurviveEviction(t *testing.T) {
	const capEntries = 4
	s := New(capEntries)
	rng := rand.New(rand.NewSource(5))
	pinnedInst := randomInstance(t, rng, []int{2, 3})
	e, _, err := s.Put(pinnedInst)
	if err != nil {
		t.Fatal(err)
	}
	held, ok := s.Resolve(e.ID())
	if !ok {
		t.Fatal(err)
	}
	for i := 0; i < 5*capEntries; i++ {
		if _, _, err := s.Put(randomInstance(t, rng, []int{2, 3})); err != nil {
			t.Fatalf("Put %d under pin: %v", i, err)
		}
	}
	got, ok := s.Resolve(e.ID())
	if !ok || got.Instance() != pinnedInst {
		t.Fatal("pinned entry was evicted under registration pressure")
	}
	got.Release()
	held.Release()
	if m := s.Metrics(); m.Evictions == 0 || m.Pinned != 0 {
		t.Fatalf("metrics %+v: want churn around the pin and no leaked pins", m)
	}
	// Unpinned now: enough pressure must eventually recycle it.
	for i := 0; i < 5*capEntries; i++ {
		if _, _, err := s.Put(randomInstance(t, rng, []int{2, 3})); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Resolve(e.ID()); ok {
		t.Fatal("released entry survived 5x capacity of churn")
	}
}

func TestPutFailsOnlyWhenEveryEntryPinned(t *testing.T) {
	const capEntries = 3
	s := New(capEntries)
	rng := rand.New(rand.NewSource(6))
	var held []*Entry
	for i := 0; i < capEntries; i++ {
		e, _, err := s.Put(randomInstance(t, rng, []int{2, 2}))
		if err != nil {
			t.Fatal(err)
		}
		pinned, ok := s.Resolve(e.ID())
		if !ok {
			t.Fatal("registered entry did not resolve")
		}
		held = append(held, pinned)
	}
	if _, _, err := s.Put(randomInstance(t, rng, []int{2, 2})); err != ErrFull {
		t.Fatalf("Put with every entry pinned: err=%v, want ErrFull", err)
	}
	held[1].Release()
	if _, created, err := s.Put(randomInstance(t, rng, []int{2, 2})); err != nil || !created {
		t.Fatalf("Put after one release: created=%v err=%v", created, err)
	}
	held[0].Release()
	held[2].Release()
}

// TestMetricsConsistentUnderConcurrentChurn runs a registration/resolve
// storm against a tiny store while a scraper asserts the monotone-totals
// contract (cumulative inserts = Entries+Evictions never decreases) under
// -race.
func TestMetricsConsistentUnderConcurrentChurn(t *testing.T) {
	s := New(8)
	rng := rand.New(rand.NewSource(7))
	insts := make([]*model.Instance, 64)
	for i := range insts {
		insts[i] = randomInstance(t, rng, []int{2, 3})
	}
	quit := make(chan struct{})
	scraped := make(chan struct{})
	var scrapeErr atomic.Value
	go func() {
		defer close(scraped)
		var lastInserts, lastLookups int64
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			m := s.Metrics()
			inserts := m.Entries + m.Evictions
			lookups := m.Resolves + m.Misses
			if inserts < lastInserts {
				scrapeErr.Store(fmt.Sprintf("scrape %d: inserts went backwards (%d -> %d)", i, lastInserts, inserts))
				return
			}
			if lookups < lastLookups {
				scrapeErr.Store(fmt.Sprintf("scrape %d: lookups went backwards (%d -> %d)", i, lastLookups, lookups))
				return
			}
			if m.Entries > int64(m.Capacity) {
				scrapeErr.Store(fmt.Sprintf("scrape %d: %d entries over capacity", i, m.Entries))
				return
			}
			lastInserts, lastLookups = inserts, lookups
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inst := insts[(self*200+i)%len(insts)]
				e, _, err := s.Put(inst)
				if err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Resolve(e.ID()); ok {
					got.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	close(quit)
	<-scraped
	if msg := scrapeErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if m := s.Metrics(); m.Pinned != 0 {
		t.Fatalf("leaked pins: %+v", m)
	}
}
