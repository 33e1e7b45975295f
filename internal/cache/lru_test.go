package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

func TestGetMissThenHit(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a", t0); ok {
		t.Fatal("Get on empty cache should miss")
	}
	c.Put("a", 1, time.Minute, CategoryOther, t0)
	v, ok := c.Get("a", t0.Add(time.Second))
	if !ok || v != 1 {
		t.Fatalf("Get = (%v, %v), want (1, true)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1, 30*time.Second, CategoryOther, t0)
	if _, ok := c.Get("a", t0.Add(29*time.Second)); !ok {
		t.Error("entry expired too early")
	}
	if _, ok := c.Get("a", t0.Add(30*time.Second)); ok {
		t.Error("entry should be expired exactly at TTL boundary")
	}
	st := c.Stats()
	if st.Expiries != 1 {
		t.Errorf("Expiries = %d, want 1", st.Expiries)
	}
	// Expired entry must have been removed.
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0 after expiry", c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1, time.Hour, CategoryOther, t0)
	c.Put("b", 2, time.Hour, CategoryOther, t0)
	// Touch "a" so "b" becomes LRU.
	if _, ok := c.Get("a", t0); !ok {
		t.Fatal("a should be present")
	}
	c.Put("c", 3, time.Hour, CategoryOther, t0)
	if _, ok := c.Get("b", t0); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a", t0); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c", t0); !ok {
		t.Error("c should be present")
	}
}

func TestPrematureEvictionAccounting(t *testing.T) {
	c := New[string, int](2)
	c.Put("nd1", 1, time.Hour, CategoryOther, t0)
	c.Put("nd2", 2, time.Hour, CategoryOther, t0)
	// A disposable insertion evicts a live non-disposable entry.
	c.Put("d1", 3, time.Minute, CategoryDisposable, t0)
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if got := st.PrematureEvictions[CategoryOther][CategoryDisposable]; got != 1 {
		t.Errorf("PrematureEvictions[other][disposable] = %d, want 1", got)
	}
	if got := st.PrematureEvictions[CategoryDisposable][CategoryOther]; got != 0 {
		t.Errorf("PrematureEvictions[disposable][other] = %d, want 0", got)
	}
}

func TestExpiredVictimIsNotPremature(t *testing.T) {
	c := New[string, int](1)
	c.Put("a", 1, time.Second, CategoryOther, t0)
	// Insert long after "a" expired: reclaim, not premature eviction.
	c.Put("b", 2, time.Minute, CategoryDisposable, t0.Add(time.Hour))
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 (victim already expired)", st.Evictions)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1, time.Second, CategoryOther, t0)
	c.Put("a", 2, time.Hour, CategoryDisposable, t0)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	v, ok := c.Get("a", t0.Add(time.Minute))
	if !ok || v != 2 {
		t.Errorf("Get = (%v, %v), want (2, true) after refresh", v, ok)
	}
	ent, ok := c.Peek("a")
	if !ok || ent.Category != CategoryDisposable {
		t.Errorf("Peek = (%+v, %v), category should be refreshed", ent, ok)
	}
}

func TestPeekDoesNotPromoteOrCount(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1, time.Hour, CategoryOther, t0)
	c.Put("b", 2, time.Hour, CategoryOther, t0)
	before := c.Stats()
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("Peek should find a")
	}
	if c.Stats() != before {
		t.Error("Peek must not change stats")
	}
	// "a" was peeked, not promoted, so it is still LRU and gets evicted.
	c.Put("c", 3, time.Hour, CategoryOther, t0)
	if _, ok := c.Peek("a"); ok {
		t.Error("a should have been evicted; Peek must not promote")
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1, time.Hour, CategoryOther, t0)
	if !c.Remove("a") {
		t.Error("Remove should report true for present key")
	}
	if c.Remove("a") {
		t.Error("Remove should report false for absent key")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[string, int](0)
	if c.Capacity() != 1 {
		t.Errorf("Capacity = %d, want 1", c.Capacity())
	}
	c.Put("a", 1, time.Hour, CategoryOther, t0)
	c.Put("b", 2, time.Hour, CategoryOther, t0)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCategoryCounts(t *testing.T) {
	c := New[string, int](10)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("d%d", i), i, time.Hour, CategoryDisposable, t0)
	}
	for i := 0; i < 2; i++ {
		c.Put(fmt.Sprintf("n%d", i), i, time.Hour, CategoryOther, t0)
	}
	counts := c.CategoryCounts()
	if counts[CategoryDisposable] != 3 || counts[CategoryOther] != 2 {
		t.Errorf("CategoryCounts = %v, want [2 3]", counts)
	}
}

func TestHitRate(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 {
		t.Error("zero stats HitRate should be 0")
	}
	st = Stats{Hits: 3, Misses: 1}
	if got := st.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryDisposable.String() != "disposable" || CategoryOther.String() != "other" {
		t.Error("Category.String mismatch")
	}
}

// Property: Len never exceeds capacity, and hits+misses equals the number of
// Get calls, across arbitrary operation sequences.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw%20) + 1
		c := New[string, int](capacity)
		now := t0
		gets := uint64(0)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			now = now.Add(time.Duration(rng.Intn(10)) * time.Second)
			switch rng.Intn(3) {
			case 0:
				ttl := time.Duration(rng.Intn(60)+1) * time.Second
				c.Put(key, i, ttl, Category(rng.Intn(2)), now)
			case 1:
				c.Get(key, now)
				gets++
			default:
				c.Remove(key)
			}
			if c.Len() > capacity {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == gets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: an entry that is Put and immediately Get (same instant, positive
// TTL) always hits.
func TestImmediateHitProperty(t *testing.T) {
	f := func(key string, ttlRaw uint16) bool {
		c := New[string, string](4)
		ttl := time.Duration(ttlRaw%3600+1) * time.Second
		c.Put(key, "v", ttl, CategoryOther, t0)
		_, ok := c.Get(key, t0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPutLowPriorityIsFirstVictim(t *testing.T) {
	c := New[string, int](3)
	c.Put("hot1", 1, time.Hour, CategoryOther, t0)
	c.PutLowPriority("cold", 2, time.Hour, CategoryDisposable, t0)
	c.Put("hot2", 3, time.Hour, CategoryOther, t0)
	// Cache full; the next insert must evict the low-priority entry even
	// though hot1 is older.
	c.Put("hot3", 4, time.Hour, CategoryOther, t0)
	if _, ok := c.Peek("cold"); ok {
		t.Error("low-priority entry should be the first victim")
	}
	for _, k := range []string{"hot1", "hot2", "hot3"} {
		if _, ok := c.Peek(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
}

func TestPutLowPriorityRefreshStaysCold(t *testing.T) {
	c := New[string, int](2)
	c.Put("hot", 1, time.Hour, CategoryOther, t0)
	c.PutLowPriority("cold", 2, time.Hour, CategoryDisposable, t0)
	// Refreshing the cold entry must not promote it.
	c.PutLowPriority("cold", 3, time.Hour, CategoryDisposable, t0)
	c.Put("hot2", 4, time.Hour, CategoryOther, t0)
	if _, ok := c.Peek("cold"); ok {
		t.Error("refreshed low-priority entry should still be the victim")
	}
	if _, ok := c.Peek("hot"); !ok {
		t.Error("hot entry should survive")
	}
}

func TestPutLowPriorityStillServesHits(t *testing.T) {
	c := New[string, int](4)
	c.PutLowPriority("cold", 1, time.Hour, CategoryDisposable, t0)
	v, ok := c.Get("cold", t0.Add(time.Second))
	if !ok || v != 1 {
		t.Errorf("Get = (%v, %v): low priority entries are still cached", v, ok)
	}
}

// TestPolicyChurnInvariants runs heavy insert/evict churn mixed with hits
// and misses: occupancy stays bounded, category counts stay consistent, and
// every surviving key is servable. The subtest names the eviction order
// under test.
func TestPolicyChurnInvariants(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		const capacity = 16
		c := New[int, int](capacity)
		for i := 0; i < 40*capacity; i++ {
			c.Put(i, i, time.Hour, Category(i%2), t0)
			if i%3 == 0 {
				c.Get(i-5, t0) // mix hits and misses into the recency order
			}
			if c.Len() > capacity {
				t.Fatalf("Len %d exceeds capacity %d", c.Len(), capacity)
			}
		}
		if c.Len() != capacity {
			t.Fatalf("Len = %d, want full cache %d", c.Len(), capacity)
		}
		counts := c.CategoryCounts()
		if counts[0]+counts[1] != capacity {
			t.Fatalf("category counts %v do not sum to %d", counts, capacity)
		}
		if c.Stats().Evictions == 0 {
			t.Fatal("churn must record evictions")
		}
		// Every key the index knows must round-trip through Get.
		live := 0
		for i := 0; i < 40*capacity; i++ {
			if v, ok := c.Get(i, t0.Add(time.Second)); ok {
				if v != i {
					t.Fatalf("key %d returned value %d", i, v)
				}
				live++
			}
		}
		if live != capacity {
			t.Fatalf("servable entries = %d, want %d", live, capacity)
		}
	})
}
