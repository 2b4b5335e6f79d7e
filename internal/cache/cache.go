// Package cache provides the content-addressed result cache behind dsserve.
//
// The deterministic simulator makes exact result caching possible: two
// requests with the same canonical content — program AST, synchronization
// scheme, machine configuration — provably produce the same measurements,
// so a cache entry is not an approximation but the answer. Keys are SHA-256
// hashes of a canonical encoding (canon.go); the store is a bounded LRU
// with singleflight-style deduplication so concurrent identical requests
// compute once and share the result.
package cache

import (
	"container/list"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
)

// Key is a content address: the SHA-256 of a canonical request encoding.
type Key [32]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex rendering String produces. The cluster layer's
// cache-transfer protocol carries keys this way (entries travel as JSON),
// and the receiver needs the binary key back to place the entry on the ring.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("cache: parse key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("cache: parse key %q: %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Ring returns the key's coordinate on a 64-bit consistent-hash ring: the
// first 8 bytes of the SHA-256 content address, big-endian. The canonical
// hash is uniform over the key space, so the prefix is a uniform ring
// position — the property that makes the content-addressed cache an exact
// sharding unit for the cluster layer.
func (k Key) Ring() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Dedups    int64 `json:"dedups"` // waits piggybacked on an in-flight computation
	Evictions int64 `json:"evictions"`
}

type entry struct {
	key Key
	val any
}

// call is one in-flight computation other requesters can wait on.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a bounded LRU result cache with singleflight deduplication.
// The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[Key]*list.Element
	flight   map[Key]*call

	hits, misses, dedups, evictions int64
}

// New builds a cache holding at most capacity entries (capacity < 1 means 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element),
		flight:   make(map[Key]*call),
	}
}

// Get returns the cached value for the key, if present, marking it recently
// used. It does not wait for in-flight computations.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

// Do returns the cached value for the key, computing it with fn on a miss.
// Concurrent Do calls for the same key run fn once: later callers block
// until the first completes and share its result. hit reports whether the
// caller avoided running fn itself (a stored entry or a deduplicated wait).
// Errors are returned to every waiter but never cached, so a failed
// computation can be retried.
func (c *Cache) Do(k Key, fn func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry).val, true, nil
	}
	if fl, ok := c.flight[k]; ok {
		c.dedups++
		c.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	c.misses++
	fl := &call{done: make(chan struct{})}
	c.flight[k] = fl
	c.mu.Unlock()

	fl.val, fl.err = fn()

	c.mu.Lock()
	delete(c.flight, k)
	if fl.err == nil {
		c.store(k, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, false, fl.err
}

// Peek returns the cached value for the key without touching the LRU order
// or the hit/miss counters. The cluster layer uses it for replica-hit
// accounting: observation must not distort effectiveness statistics or
// recency.
func (c *Cache) Peek(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		return el.Value.(*entry).val, true
	}
	return nil, false
}

// Put stores a value directly, bypassing singleflight. Entries imported
// from a peer arrive this way: the value was computed (and content-
// addressed) elsewhere, so there is nothing to deduplicate. An existing
// entry is overwritten — determinism makes any two values under one key
// semantically identical.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(k, v)
}

// store inserts a value under the lock, evicting the LRU tail past capacity.
func (c *Cache) store(k Key, v any) {
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[k] = c.ll.PushFront(&entry{key: k, val: v})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		c.evictions++
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Snapshot returns the current effectiveness counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Dedups:    c.dedups,
		Evictions: c.evictions,
	}
}
