package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEntry is the naive reference model: a map of key → (value, expiry,
// category) with no capacity bound and timestamp checks on every lookup.
type refEntry struct {
	val int
	exp time.Time
	cat Category
}

// TestReferenceModelProperty drives the cache with a randomized op
// sequence — Put/PutLowPriority/Get/Peek/Remove/Advance over skewed keys
// and mixed TTLs — and cross-checks each observation against the reference.
//
// With capacity ≥ the key universe nothing is ever evicted, so the cache
// must agree with the model exactly: Get hits iff the model holds an
// unexpired entry, with the same value. With a small capacity the model
// does not track evictions, so the check weakens to soundness: whatever the
// cache returns must match the model, and occupancy stays within capacity.
func TestReferenceModelProperty(t *testing.T) {
	const keyUniverse = 64
	for _, cfg := range []struct {
		name     string
		capacity int
		exact    bool
	}{
		{"unbounded", keyUniverse + 8, true},
		{"pressured", keyUniverse / 4, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			runReferenceModel(t, cfg.capacity, cfg.exact, keyUniverse)
		})
	}
}

func runReferenceModel(t *testing.T, capacity int, exact bool, keyUniverse int) {
	t.Helper()
	rng := rand.New(rand.NewSource(0xD15C0))
	c := New[string, int](capacity)
	model := make(map[string]refEntry)
	keys := make([]string, keyUniverse)
	for i := range keys {
		keys[i] = fmt.Sprintf("name%d", i)
	}
	// Zipf-ish skew: low indices are hot.
	pick := func() string {
		i := rng.Intn(keyUniverse)
		if rng.Intn(4) != 0 {
			i = rng.Intn(1 + i/4)
		}
		return keys[i]
	}
	now := t0
	modelLive := func(k string) (refEntry, bool) {
		e, ok := model[k]
		if !ok || !now.Before(e.exp) {
			return refEntry{}, false
		}
		return e, true
	}
	for op := 0; op < 20000; op++ {
		// Time moves forward in uneven sub-second to multi-second hops.
		now = now.Add(time.Duration(rng.Intn(2500)) * time.Millisecond)
		k := pick()
		switch rng.Intn(10) {
		case 0, 1, 2: // Put
			v := rng.Int()
			ttl := time.Duration(1+rng.Intn(600)) * time.Second
			cat := Category(rng.Intn(2))
			c.Put(k, v, ttl, cat, now)
			model[k] = refEntry{val: v, exp: now.Add(ttl), cat: cat}
		case 3: // PutLowPriority
			v := rng.Int()
			ttl := time.Duration(1+rng.Intn(30)) * time.Second
			c.PutLowPriority(k, v, ttl, CategoryDisposable, now)
			model[k] = refEntry{val: v, exp: now.Add(ttl), cat: CategoryDisposable}
		case 4: // Remove
			c.Remove(k)
			delete(model, k)
		case 5: // Advance; also age the model
			c.Advance(now)
		default: // Get + occasional Peek
			v, ok := c.Get(k, now)
			ref, live := modelLive(k)
			if ok {
				if v != ref.val || !live {
					t.Fatalf("op %d: Get(%s) = (%d, true) disagrees with model (%+v, live=%v)", op, k, v, ref, live)
				}
			} else if exact && live {
				t.Fatalf("op %d: Get(%s) missed but model holds live entry %+v", op, k, ref)
			}
			if rng.Intn(8) == 0 {
				e, ok := c.Peek(k)
				if ok {
					m, inModel := model[k]
					if !inModel || e.Value != m.val || !e.Expires.Equal(m.exp) || e.Category != m.cat {
						t.Fatalf("op %d: Peek(%s) = %+v disagrees with model %+v (present=%v)", op, k, e, m, inModel)
					}
				} else if exact {
					if _, live := modelLive(k); live {
						t.Fatalf("op %d: Peek(%s) missing but model holds a live entry", op, k)
					}
				}
			}
		}
		if c.Len() > capacity {
			t.Fatalf("op %d: Len %d exceeds capacity %d", op, c.Len(), capacity)
		}
		if ll, l := c.LiveLen(), c.Len(); ll < 0 || ll > l {
			t.Fatalf("op %d: LiveLen %d outside [0, Len=%d]", op, ll, l)
		}
	}
	// Final sweep in the exact configuration: every live model entry must
	// still be servable, and occupancy must equal the model entries the
	// wheel retains (expiry second not wholly passed — the wheel works at
	// one-second granularity, the lazy Get check below it).
	if exact {
		now = now.Add(2 * time.Second)
		c.Advance(now)
		retained := 0
		for _, e := range model {
			if e.exp.Unix() >= now.Unix() {
				retained++
			}
		}
		if c.Len() != retained {
			t.Fatalf("final: Len = %d, want %d wheel-retained model entries", c.Len(), retained)
		}
		for k, e := range model {
			if !now.Before(e.exp) {
				continue
			}
			v, ok := c.Get(k, now)
			if !ok || v != e.val {
				t.Fatalf("final: Get(%s) = (%d, %v), model %+v", k, v, ok, e)
			}
		}
	}
}
