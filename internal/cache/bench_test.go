package cache

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkPutGet(b *testing.B) {
	c := New[string, int](1 << 14)
	now := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	keys := make([]string, 1<<15)
	for i := range keys {
		keys[i] = fmt.Sprintf("name%d.example.com|A", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, ok := c.Get(k, now); !ok {
			c.Put(k, i, time.Minute, CategoryOther, now)
		}
	}
}

func BenchmarkEvictionChurn(b *testing.B) {
	c := New[string, int](256)
	now := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, time.Hour, CategoryDisposable, now)
	}
}
