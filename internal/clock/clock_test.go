package clock

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFirstFillWinsThenEvicts: re-putting a resident key keeps the first
// value, and only a key the cache does not hold can overflow it.
func TestFirstFillWinsThenEvicts(t *testing.T) {
	c := New[string, []byte](2)
	c.Put("a", []byte("1"))
	if got, _, evicted, ok := c.Put("a", []byte("1b")); !ok || evicted || string(got) != "1" {
		t.Fatalf("re-put: resident %q evicted=%v ok=%v, want the first fill %q", got, evicted, ok, "1")
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("re-put added an entry: %+v", st)
	}
	if got, ok := c.Get("a"); !ok || string(got) != "1" {
		t.Fatalf("Get a = %q ok=%v, want the first fill", got, ok)
	}
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3")) // must evict one of a/b
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v, want 2 entries and 1 eviction", st)
	}
	if got, ok := c.Get("a"); ok && string(got) != "1" {
		t.Fatalf("key a answered %q after overflow", got)
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("most recent put was evicted immediately")
	}
	hits, misses := 0, 0
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := c.Get(k); ok {
			hits++
		} else {
			misses++
		}
	}
	if st := c.Stats(); hits != 2 || misses != 1 || st.Entries != 2 {
		t.Fatalf("hits=%d misses=%d stats=%+v, want 2 resident of 3 keys", hits, misses, st)
	}
}

// op is one step of a table case: put (wantVictim "" = no eviction), get,
// pin or unpin.
type op struct {
	kind, key  string
	wantOK     bool   // put: inserted or resident; get/pin: hit
	wantVictim string // put only
}

func put(k, victim string) op { return op{kind: "put", key: k, wantOK: true, wantVictim: victim} }
func putFull(k string) op     { return op{kind: "put", key: k} }
func get(k string, hit bool) op {
	return op{kind: "get", key: k, wantOK: hit}
}
func pin(k string) op   { return op{kind: "pin", key: k, wantOK: true} }
func unpin(k string) op { return op{kind: "unpin", key: k} }

func TestPolicy(t *testing.T) {
	var churn []op
	for i := 1; i <= 10; i++ {
		victim := ""
		if i > 3 {
			victim = strconv.Itoa(i - 3)
		}
		churn = append(churn, put(strconv.Itoa(i), victim))
	}
	cases := []struct {
		name     string
		capacity int
		ops      []op
		resident []string
		want     Stats // Hits and Misses are not compared
		pinned   int64
	}{
		{
			name: "bound holds, evictions counted, newest resident", capacity: 3,
			ops: churn, resident: []string{"8", "9", "10"},
			want: Stats{Evictions: 7, Entries: 3, Capacity: 3},
		},
		{
			// Reads give a and c a second chance; b, never read, goes first,
			// then a, whose bit the previous sweep cleared.
			name: "cold inserts: never-read entries go first", capacity: 3,
			ops: []op{put("a", ""), put("b", ""), put("c", ""), get("a", true), get("c", true),
				put("d", "b"), put("e", "a")},
			resident: []string{"c", "d", "e"},
			want:     Stats{Evictions: 2, Entries: 3, Capacity: 3},
		},
		{
			name: "first fill wins", capacity: 2,
			ops:      []op{put("a", ""), put("a", ""), put("b", ""), put("b", "")},
			resident: []string{"a", "b"},
			want:     Stats{Entries: 2, Capacity: 2},
		},
		{
			// The pinned a is skipped while b, c and d churn past it; once
			// unpinned its bit (set by the pin) buys it one more sweep.
			name: "pins survive churn", capacity: 2,
			ops: []op{put("a", ""), put("b", ""), pin("a"), put("c", "b"), put("d", "c"),
				unpin("a"), put("e", "d"), put("f", "a")},
			resident: []string{"e", "f"},
			want:     Stats{Evictions: 4, Entries: 2, Capacity: 2},
		},
		{
			name: "full only when every slot is pinned", capacity: 2,
			ops: []op{put("a", ""), put("b", ""), pin("a"), pin("b"), putFull("c"), get("c", false),
				unpin("b"), put("c", "b")},
			resident: []string{"a", "c"},
			want:     Stats{Evictions: 1, Entries: 2, Capacity: 2},
			pinned:   1,
		},
		{
			name: "zero capacity holds nothing", capacity: 0,
			ops: []op{putFull("a"), get("a", false)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, string](tc.capacity)
			for i, o := range tc.ops {
				switch o.kind {
				case "put":
					got, victim, evicted, ok := c.Put(o.key, o.key)
					if ok != o.wantOK || victim != o.wantVictim || evicted != (o.wantVictim != "") {
						t.Fatalf("op %d put %s: victim %q evicted=%v ok=%v, want victim %q ok=%v",
							i, o.key, victim, evicted, ok, o.wantVictim, o.wantOK)
					}
					if ok && got != o.key {
						t.Fatalf("op %d put %s: resident %q", i, o.key, got)
					}
				case "get", "pin":
					lookup := c.Get
					if o.kind == "pin" {
						lookup = c.Pin
					}
					if got, ok := lookup(o.key); ok != o.wantOK || (ok && got != o.key) {
						t.Fatalf("op %d %s %s: %q ok=%v, want hit=%v", i, o.kind, o.key, got, ok, o.wantOK)
					}
				case "unpin":
					c.Unpin(o.key)
				}
			}
			st := c.Stats()
			st.Hits, st.Misses = 0, 0
			if st != tc.want {
				t.Fatalf("stats %+v, want %+v", st, tc.want)
			}
			if p := c.Pinned(); p != tc.pinned {
				t.Fatalf("pinned = %d, want %d", p, tc.pinned)
			}
			vals := c.Values()
			if len(vals) != len(tc.resident) {
				t.Fatalf("resident %v, want %v", vals, tc.resident)
			}
			for _, k := range tc.resident {
				if _, ok := c.Get(k); !ok {
					t.Fatalf("%s not resident; resident %v", k, vals)
				}
			}
		})
	}
}

// TestStatsMonotoneUnderConcurrency: while writers, readers and pinners
// churn a small cache, every snapshot must see monotone insert
// (Entries+Evictions) and lookup (Hits+Misses) totals and an entry count
// within the bound. Run under -race in CI.
func TestStatsMonotoneUnderConcurrency(t *testing.T) {
	const capacity, workers, rounds = 8, 4, 2000
	c := New[string, int](capacity)
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
			st := c.Stats()
			inserts, lookups := st.Entries+st.Evictions, st.Hits+st.Misses
			switch {
			case inserts < lastInserts:
				scrapeErr.Store(fmt.Sprintf("scrape %d: inserts went backwards (%d -> %d)", i, lastInserts, inserts))
				return
			case lookups < lastLookups:
				scrapeErr.Store(fmt.Sprintf("scrape %d: lookups went backwards (%d -> %d)", i, lastLookups, lookups))
				return
			case st.Entries > int64(st.Capacity):
				scrapeErr.Store(fmt.Sprintf("scrape %d: %d entries over capacity %d", i, st.Entries, st.Capacity))
				return
			}
			lastInserts, lastLookups = inserts, lookups
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := strconv.Itoa((self*rounds + i) % 64)
				// At most one pin per worker and fewer workers than slots, so
				// a Put can never find every slot pinned.
				if _, _, _, ok := c.Put(k, i); !ok {
					t.Error("Put failed with free slots")
					return
				}
				c.Get(strconv.Itoa(i % 64))
				if _, ok := c.Pin(k); ok {
					c.Unpin(k)
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
	if p := c.Pinned(); p != 0 {
		t.Fatalf("leaked pins: %d", p)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("64 keys over %d slots produced no evictions: %+v", capacity, st)
	}
}
