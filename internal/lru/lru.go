// Package lru is the bounded least-recently-used map behind every cache
// in the serving stack: the result, idempotency, spec and version caches
// of a server, and the result, idempotency, spec and owner caches of a
// cluster coordinator. Callers keep their own value rules (copy-on-put,
// refusal of malformed entries); the cache only orders and bounds.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity LRU safe for concurrent use. A capacity of
// zero or less never stores anything.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recent; values are *Entry[K, V]
	items  map[K]*list.Element
	evicts int64
}

// Entry is one key/value pair, as Export returns it.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key, refreshing its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*Entry[K, V]).Value, true
}

// Put inserts or replaces key as the most recent entry, evicting the
// least recently used entries beyond capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*Entry[K, V]).Value = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&Entry[K, V]{Key: key, Value: val})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*Entry[K, V]).Key)
		c.evicts++
	}
}

// Remove deletes key and reports whether it was present. Removals are not
// evictions.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
	return ok
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns how many entries capacity has pushed out since New.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicts
}

// Export snapshots every entry, least recently used first, so putting
// the list back in order reproduces the recency order (journal snapshot
// compaction relies on this).
func (c *Cache[K, V]) Export() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*Entry[K, V]))
	}
	return out
}
