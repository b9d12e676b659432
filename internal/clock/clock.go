// Package clock is the one bounded cache of the repository: a fixed number
// of slots replaced by the CLOCK (second-chance) policy. The engine memo
// shards, the instance store, the node's response memo, the router's replay
// cache and response memo, and the registry of terminal jobs all run on it,
// so the replacement decision lives here and nowhere else.
//
// The policy:
//
//   - Cold inserts. Put never sets the reference bit; only a lookup (Get,
//     Pin) does. An entry that is written and never read is therefore the
//     first to go, and a burst of writes cannot push out entries that are
//     being read.
//
//   - Second chance. On overflow the hand sweeps the slots, clearing set
//     reference bits, and recycles the first slot whose bit is already
//     clear. Two revolutions always find a victim unless every slot is
//     pinned.
//
//   - Pins. Pin is a lookup that also holds the entry resident until the
//     matching Unpin; the sweep skips pinned slots without clearing their
//     bit. Put reports failure only when every slot is pinned.
//
//   - First fill wins. A Put of a resident key keeps the resident value,
//     so repeat reads of a key are byte-stable.
//
//   - Consistent snapshots. Entries and Evictions change only under the
//     write lock and Stats reads both in one acquisition, so
//     Entries+Evictions (cumulative inserts) never decreases between
//     snapshots; Hits and Misses are monotone atomics.
package clock

import (
	"sync"
	"sync/atomic"
)

// Cache is a bounded map from K to V with CLOCK replacement. It is safe for
// concurrent use: lookups share a read lock, inserts take the write lock.
type Cache[K comparable, V any] struct {
	capacity int

	mu        sync.RWMutex
	index     map[K]int32 // key -> slot
	slots     []slot[K, V]
	hand      int32
	evictions int64 // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

type slot[K comparable, V any] struct {
	key  K
	val  V
	ref  atomic.Bool  // set by lookups, cleared by the sweep
	pins atomic.Int32 // Pin calls not yet matched by Unpin
}

// Stats is a point-in-time snapshot of a cache.
type Stats struct {
	// Hits and Misses count lookups (Get and Pin).
	Hits, Misses int64
	// Evictions counts entries recycled by the hand; Entries+Evictions is
	// the cumulative insert count.
	Evictions int64
	// Entries is the resident count; never above Capacity.
	Entries int64
	// Capacity is the bound the cache was built with.
	Capacity int
}

// New returns a cache holding at most capacity entries. A cache with
// capacity <= 0 holds nothing: every lookup misses and every Put fails.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	// Slots are appended on first fill rather than allocated up front: an
	// engine holds 64 shards of its memo, and a service several caches
	// besides, so preallocating every bound would hold tens of MB that most
	// caches never fill.
	return &Cache[K, V]{capacity: capacity, index: make(map[K]int32)}
}

// Get returns the value resident under key and sets its reference bit.
func (c *Cache[K, V]) Get(key K) (V, bool) { return c.lookup(key, false) }

// Pin is Get that also pins the entry: it stays resident until a matching
// Unpin, whatever the insert pressure.
func (c *Cache[K, V]) Pin(key K) (V, bool) { return c.lookup(key, true) }

func (c *Cache[K, V]) lookup(key K, pin bool) (V, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.index[key]
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s := &c.slots[i]
	if pin {
		s.pins.Add(1)
	}
	s.ref.Store(true)
	c.hits.Add(1)
	return s.val, true
}

// Unpin drops one pin taken by Pin on key.
func (c *Cache[K, V]) Unpin(key K) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i, ok := c.index[key]; ok {
		c.slots[i].pins.Add(-1)
	}
}

// Put inserts val under key, cold. When key is already resident nothing
// changes (first fill wins) and the resident value is returned. Otherwise
// val becomes resident, and when the cache was full the recycled entry's
// value comes back as victim with evicted set. ok is false only when the
// cache is full and every slot is pinned; nothing is inserted then.
func (c *Cache[K, V]) Put(key K, val V) (resident, victim V, evicted, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, found := c.index[key]; found {
		return c.slots[i].val, victim, false, true
	}
	if len(c.slots) < c.capacity {
		c.slots = append(c.slots, slot[K, V]{key: key, val: val})
		c.index[key] = int32(len(c.slots) - 1)
		return val, victim, false, true
	}
	// Lookups and Unpin hold the read lock, so no bit or pin moves during
	// the sweep: the first revolution clears every unpinned bit and the
	// second takes the first unpinned slot.
	for n := 0; n < 2*len(c.slots); n++ {
		i := c.hand
		s := &c.slots[i]
		c.hand = (c.hand + 1) % int32(len(c.slots))
		if s.pins.Load() > 0 || s.ref.CompareAndSwap(true, false) {
			continue
		}
		victim = s.val
		delete(c.index, s.key)
		s.key, s.val = key, val
		c.index[key] = i
		c.evictions++
		return val, victim, true, true
	}
	return resident, victim, false, false
}

// Stats snapshots the counters; Entries and Evictions come from one lock
// acquisition.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions,
		Entries:   int64(len(c.slots)),
		Capacity:  c.capacity,
	}
}

// Pinned returns the number of resident entries holding at least one pin.
func (c *Cache[K, V]) Pinned() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for i := range c.slots {
		if c.slots[i].pins.Load() > 0 {
			n++
		}
	}
	return n
}

// Values returns the resident values, in slot order.
func (c *Cache[K, V]) Values() []V {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]V, len(c.slots))
	for i := range c.slots {
		out[i] = c.slots[i].val
	}
	return out
}
