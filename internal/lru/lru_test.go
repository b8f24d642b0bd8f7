package lru

import (
	"reflect"
	"sync"
	"testing"
)

func keys[K comparable, V any](es []Entry[K, V]) []K {
	out := make([]K, len(es))
	for i, e := range es {
		out[i] = e.Key
	}
	return out
}

// A Get refreshes recency: the touched key survives the next eviction and
// the untouched oldest key goes instead.
func TestGetRefreshesRecency(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; the refreshed a should have outlived it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was evicted despite being the most recently read")
	}
}

// Evictions go least recently used first and are counted; replacing an
// existing key is a refresh, not an eviction.
func TestEvictionOrderAndCount(t *testing.T) {
	c := New[int, string](3)
	for i := 0; i < 3; i++ {
		c.Put(i, "v")
	}
	c.Put(0, "refreshed") // 0 becomes the most recent; no eviction
	if n := c.Evictions(); n != 0 {
		t.Fatalf("evictions after refresh = %d, want 0", n)
	}
	c.Put(3, "v") // evicts 1
	c.Put(4, "v") // evicts 2
	if n := c.Evictions(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
	if got, want := keys(c.Export()), []int{0, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident keys LRU-first = %v, want %v", got, want)
	}
	if v, _ := c.Get(0); v != "refreshed" {
		t.Fatalf("Get(0) = %q, want the replaced value", v)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// A cache built with capacity 0 (or less) never stores anything.
func TestZeroCapacityNeverStores(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		c.Put("a", 1)
		if _, ok := c.Get("a"); ok {
			t.Fatalf("cap %d: Get hit after Put", capacity)
		}
		if c.Len() != 0 || c.Evictions() != 0 || len(c.Export()) != 0 {
			t.Fatalf("cap %d: len=%d evictions=%d export=%v, want all empty",
				capacity, c.Len(), c.Evictions(), c.Export())
		}
	}
}

// Remove deletes exactly the named key, reports presence, and is not
// counted as an eviction.
func TestRemove(t *testing.T) {
	c := New[uint64, string](4)
	c.Put(1, "a")
	c.Put(2, "b")
	if !c.Remove(1) {
		t.Fatal("Remove(1) = false for a present key")
	}
	if c.Remove(1) {
		t.Fatal("Remove(1) = true for an absent key")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("removed key still readable")
	}
	if v, ok := c.Get(2); !ok || v != "b" {
		t.Fatalf("Get(2) = %q, %v; want b, true", v, ok)
	}
	if c.Len() != 1 || c.Evictions() != 0 {
		t.Fatalf("len=%d evictions=%d, want 1 and 0", c.Len(), c.Evictions())
	}
}

// Export lists entries least recently used first, and putting the list
// back in order into a fresh cache reproduces the same recency.
func TestExportLRUFirst(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // order now b, c, a (LRU first)
	got := c.Export()
	want := []Entry[string, int]{{"b", 2}, {"c", 3}, {"a", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Export = %v, want %v", got, want)
	}
	d := New[string, int](4)
	for _, e := range got {
		d.Put(e.Key, e.Value)
	}
	if !reflect.DeepEqual(d.Export(), want) {
		t.Fatalf("re-put export = %v, want %v", d.Export(), want)
	}
}

// Concurrent Get, Put, Remove and Export keep the cache within capacity
// (run under -race to check the locking).
func TestConcurrentUse(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 20
				c.Put(k, i)
				c.Get(k + 1)
				if i%7 == 0 {
					c.Remove(k)
				}
				if i%50 == 0 {
					_ = c.Export()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Fatalf("Len = %d, above capacity 8", n)
	}
}
