package cache

import (
	"fmt"
	"testing"
	"time"
)

// TestGetZeroAlloc: a hit — lookup plus promotion to most-recently-used —
// must not allocate. This is the slab design's core claim: promotion only
// rewrites int32 links in the arena.
func TestGetZeroAlloc(t *testing.T) {
	c := New[string, int](64)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, time.Hour, CategoryOther, t0)
	}
	now := t0.Add(time.Second)
	keys := make([]string, 32)
	for j := range keys {
		keys[j] = fmt.Sprintf("k%d", j)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i = (i + 7) % 32 // rotate so promotions actually move slots
		if _, ok := c.Get(keys[i], now); !ok {
			t.Fatal("expected hit")
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit allocated %.1f times per op, want 0", allocs)
	}
}

// TestPutRefreshZeroAlloc: refreshing an existing key (the common TTL-renew
// path) rewrites the slot in place — no allocation.
func TestPutRefreshZeroAlloc(t *testing.T) {
	c := New[string, int](16)
	c.Put("key", 1, time.Hour, CategoryOther, t0)
	c.PutLowPriority("cold", 2, time.Hour, CategoryDisposable, t0)
	allocs := testing.AllocsPerRun(500, func() {
		c.Put("key", 3, time.Hour, CategoryOther, t0)
		c.PutLowPriority("cold", 4, time.Hour, CategoryDisposable, t0)
	})
	if allocs != 0 {
		t.Errorf("Put refresh allocated %.1f times per op, want 0", allocs)
	}
}

// TestPolicyZeroAllocHotPath: with the slab grown to capacity, a hit, a
// refresh and an evict-then-insert — which reuses the LRU tail's slot through
// the free chain — must not allocate. The subtest names the eviction order
// under test.
func TestPolicyZeroAllocHotPath(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		const capacity = 64
		c := New[string, int](capacity)
		keys := make([]string, 2*capacity)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		for i := 0; i < capacity; i++ {
			c.Put(keys[i], i, time.Hour, CategoryOther, t0)
		}
		now := t0.Add(time.Second)
		i := 0
		if allocs := testing.AllocsPerRun(500, func() {
			i = (i + 7) % capacity
			c.Get(keys[i], now)
		}); allocs != 0 {
			t.Errorf("Get allocated %.1f times per op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(500, func() {
			c.Put(keys[3], 1, time.Hour, CategoryOther, now)
			c.PutLowPriority(keys[5], 2, time.Hour, CategoryDisposable, now)
		}); allocs != 0 {
			t.Errorf("Put refresh allocated %.1f times per op, want 0", allocs)
		}
		j := 0
		if allocs := testing.AllocsPerRun(500, func() {
			j = (j + 1) % len(keys)
			c.Put(keys[j], j, time.Hour, Category(j%2), now) // mostly evict+insert
		}); allocs != 0 {
			t.Errorf("eviction churn allocated %.1f times per op, want 0", allocs)
		}
	})
}

// TestCategoryCountsTracksMutations covers the atomic per-category counts
// through the full mutation surface: insert, refresh with a category flip,
// remove, expiry reclaim, and eviction.
func TestCategoryCountsTracksMutations(t *testing.T) {
	c := New[string, int](2)
	check := func(want [2]int, step string) {
		t.Helper()
		if got := c.CategoryCounts(); got != want {
			t.Fatalf("%s: CategoryCounts = %v, want %v", step, got, want)
		}
	}
	c.Put("a", 1, time.Hour, CategoryOther, t0)
	check([2]int{1, 0}, "insert other")
	c.Put("a", 1, time.Hour, CategoryDisposable, t0)
	check([2]int{0, 1}, "refresh flips category")
	c.Put("b", 2, time.Second, CategoryOther, t0)
	check([2]int{1, 1}, "second insert")
	// Expired lookup reclaims the entry.
	if _, ok := c.Get("b", t0.Add(time.Minute)); ok {
		t.Fatal("b should have expired")
	}
	check([2]int{0, 1}, "expiry reclaim")
	c.Put("c", 3, time.Hour, CategoryOther, t0)
	c.Put("d", 4, time.Hour, CategoryOther, t0) // evicts the LRU
	check([2]int{2, 0}, "eviction")
	c.Remove("d")
	check([2]int{1, 0}, "remove")
}

// TestSlabReuseAfterChurn: the arena must recycle slots through the free
// chain — heavy insert/evict churn keeps Len bounded by capacity and the
// recency order consistent.
func TestSlabReuseAfterChurn(t *testing.T) {
	const capacity = 8
	c := New[int, int](capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(i, i, time.Hour, Category(i%2), t0)
		if c.Len() > capacity {
			t.Fatalf("Len %d exceeds capacity %d", c.Len(), capacity)
		}
	}
	// The survivors are the last `capacity` keys, newest first.
	for i := 10*capacity - capacity; i < 10*capacity; i++ {
		if _, ok := c.Peek(i); !ok {
			t.Errorf("key %d should have survived", i)
		}
	}
	counts := c.CategoryCounts()
	if counts[0]+counts[1] != capacity {
		t.Errorf("category counts %v do not sum to capacity %d", counts, capacity)
	}
}
