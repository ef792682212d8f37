package weakcache

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"weak"
)

type value struct{ key, payload int }

// TestCacheKeepsHeldAndRecent: a key's value is built once while held, the
// most recently used value survives its holders, and every other value
// nobody holds is collected and its slot emptied.
func TestCacheKeepsHeldAndRecent(t *testing.T) {
	var c Cache[int, value]
	builds := 0
	get := func(k int) *value {
		return c.Get(k, func() *value { builds++; return &value{key: k} })
	}
	held := get(1)
	if get(1) != held || builds != 1 {
		t.Fatalf("a held value was rebuilt: %d builds", builds)
	}
	released := weak.Make(get(2))
	for k := 3; k < 10; k++ {
		get(k)
	}
	recent := weak.Make(get(10))
	runtime.GC()
	if released.Value() != nil {
		t.Error("a value nobody holds outlived a collection")
	}
	if recent.Value() == nil {
		t.Error("the most recently used value was collected")
	}
	// Cleanups run after the collection, on their own goroutine.
	for i := 0; c.size() > 2 && i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := c.size(); n != 2 {
		t.Errorf("%d slots after collection, want 2 (the held and the recent value)", n)
	}
	if builds = 0; get(1) != held || builds != 0 {
		t.Error("the held value was rebuilt after a collection")
	}
	if get(2).key != 2 || builds != 1 {
		t.Errorf("a released key was not rebuilt: %d builds", builds)
	}
	runtime.KeepAlive(held)
}

// size returns the number of keys whose values are still referenced, or
// were until the last collection.
func (c *Cache[K, V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// TestCacheKeepsNothingOnError: a build that fails returns its error and
// leaves the cache as it was — no slot for its key, the most recently used
// value still the recent one — and the next caller builds again.
func TestCacheKeepsNothingOnError(t *testing.T) {
	var c Cache[int, value]
	recent := weak.Make(c.Get(1, func() *value { return &value{key: 1} }))
	bad := errors.New("no value")
	builds := 0
	for range 2 {
		v, err := c.GetErr(2, func() (*value, error) { builds++; return nil, bad })
		if v != nil || err != bad {
			t.Fatalf("failed build returned %v, %v", v, err)
		}
	}
	if builds != 2 || c.size() != 1 {
		t.Errorf("%d builds and %d slots after two failed builds, want 2 and 1", builds, c.size())
	}
	runtime.GC()
	if recent.Value() == nil {
		t.Error("a failed build displaced the most recently used value")
	}
}
