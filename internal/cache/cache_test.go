package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func keyOf(s string) Key {
	var k Key
	copy(k[:], s)
	return k
}

func TestDoStoresAndHits(t *testing.T) {
	c := New(4)
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }

	v, hit, err := c.Do(keyOf("a"), fn)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Do(keyOf("a"), fn)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		i := i
		c.Do(keyOf(fmt.Sprintf("k%d", i)), func() (any, error) { return i, nil })
	}
	if _, ok := c.Get(keyOf("k0")); ok {
		t.Error("k0 should have been evicted")
	}
	if _, ok := c.Get(keyOf("k2")); !ok {
		t.Error("k2 should be present")
	}
	if st := c.Snapshot(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats %+v, want 1 eviction / 2 entries", st)
	}

	// Touching k1 promotes it: inserting k3 must evict k2, not k1.
	c.Get(keyOf("k1"))
	c.Do(keyOf("k3"), func() (any, error) { return 3, nil })
	if _, ok := c.Get(keyOf("k1")); !ok {
		t.Error("recently used k1 evicted before k2")
	}
	if _, ok := c.Get(keyOf("k2")); ok {
		t.Error("k2 should have been evicted after k1 was touched")
	}
}

// TestSingleflightDedup: concurrent identical requests run the computation
// exactly once and all observe its result.
func TestSingleflightDedup(t *testing.T) {
	c := New(8)
	var calls atomic.Int64
	gate := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(keyOf("hot"), func() (any, error) {
				calls.Add(1)
				<-gate // hold every other goroutine in the dedup path
				return "answer", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("computation ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "answer" {
			t.Errorf("waiter %d got %v", i, v)
		}
	}
	st := c.Snapshot()
	if st.Dedups+st.Hits != waiters-1 {
		t.Errorf("stats %+v: %d waiters should have been served without computing", st, waiters-1)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, error) { calls++; return nil, boom }

	if _, _, err := c.Do(keyOf("e"), fail); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if _, _, err := c.Do(keyOf("e"), fail); !errors.Is(err, boom) {
		t.Fatalf("want boom on retry, got %v", err)
	}
	if calls != 2 {
		t.Errorf("failed computation cached: ran %d times, want 2", calls)
	}
	v, hit, err := c.Do(keyOf("e"), func() (any, error) { return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Errorf("recovery run: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines over a
// small key space; run under -race this checks the locking discipline.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(fmt.Sprintf("k%d", (g+i)%6))
				v, _, err := c.Do(k, func() (any, error) { return (g + i) % 6, nil })
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				_ = v
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Errorf("cache grew past capacity: %d entries", c.Len())
	}
}

// TestParseKeyRoundTrip: ParseKey inverts String exactly and rejects
// malformed hex and wrong lengths.
func TestParseKeyRoundTrip(t *testing.T) {
	k := keyOf("round-trip")
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("ParseKey(String) = %v, %v; want the original key", got, err)
	}
	for _, bad := range []string{"", "zz", "abcd", k.String() + "00", "g" + k.String()[1:]} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted malformed input", bad)
		}
	}
}

// TestPeekDoesNotTouchStats: Peek observes without moving LRU order or
// counting a hit/miss — observation must not distort effectiveness stats.
func TestPeekDoesNotTouchStats(t *testing.T) {
	c := New(2)
	c.Put(keyOf("a"), 1)
	c.Put(keyOf("b"), 2)

	if v, ok := c.Peek(keyOf("a")); !ok || v.(int) != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek(keyOf("absent")); ok {
		t.Fatal("Peek found an absent key")
	}
	st := c.Snapshot()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek counted hits/misses: %+v", st)
	}

	// "a" was peeked but not touched: it is still the LRU tail, so a third
	// insert evicts it, not "b".
	c.Put(keyOf("c"), 3)
	if _, ok := c.Peek(keyOf("a")); ok {
		t.Error("peeked key was promoted to recently-used")
	}
	if _, ok := c.Peek(keyOf("b")); !ok {
		t.Error("recently-stored key was evicted instead of the peeked one")
	}
}

// TestPutOverwrites: Put stores directly (the import path), overwrites in
// place and moves the overwritten key to the front, so the eviction that
// follows takes the other key.
func TestPutOverwrites(t *testing.T) {
	c := New(2)
	c.Put(keyOf("x"), 1)
	c.Put(keyOf("y"), 2)
	c.Put(keyOf("x"), 10) // overwrite, also moves x to the front
	if v, ok := c.Peek(keyOf("x")); !ok || v.(int) != 10 {
		t.Errorf("Put overwrite: Peek(x) = %v, %v, want 10", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries after an overwrite, want 2", c.Len())
	}
	c.Put(keyOf("z"), 3)
	if _, ok := c.Peek(keyOf("y")); ok {
		t.Error("the least recently stored key survived an eviction")
	}
	if _, ok := c.Peek(keyOf("x")); !ok {
		t.Error("the overwritten key was evicted: the overwrite did not move it to the front")
	}
}
