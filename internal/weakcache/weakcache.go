// Package weakcache shares a value built from a key among everyone holding
// one, without keeping the values nobody holds. An entry lives while some
// caller still references its value; the most recently used value also
// lives on, so that back-to-back users of one key — runs of one scenario,
// instances of one daemon — find it even when no two of them overlap.
// Nothing else is kept: a sweep over many keys holds one value at a time
// plus those its callers still hold.
package weakcache

import (
	"runtime"
	"sync"
	"weak"
)

// Cache maps keys to values shared while referenced. The zero value is
// ready to use; a Cache must not be copied after first use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	byKey  map[K]weak.Pointer[V]
	recent *V
}

// entry names one map slot for the cleanup that empties it.
type entry[K comparable, V any] struct {
	key K
	ptr weak.Pointer[V]
}

// Get returns the value cached for k, or build's result, cached, when no
// value for k is still referenced. build runs under the cache's lock, so
// concurrent callers with one key build it once.
func (c *Cache[K, V]) Get(k K, build func() *V) *V {
	v, _ := c.GetErr(k, func() (*V, error) { return build(), nil })
	return v
}

// GetErr is Get for a build that can fail: its error is returned and
// nothing is cached, so the next caller with k builds again.
func (c *Cache[K, V]) GetErr(k K, build func() (*V, error)) (*V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.byKey[k].Value(); v != nil {
		c.recent = v
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	ptr := weak.Make(v)
	if c.byKey == nil {
		c.byKey = make(map[K]weak.Pointer[V])
	}
	c.byKey[k] = ptr
	runtime.AddCleanup(v, c.drop, entry[K, V]{k, ptr})
	c.recent = v
	return v, nil
}

// drop empties k's slot once its value is collected, unless a newer value
// for k took the slot meanwhile.
func (c *Cache[K, V]) drop(e entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey[e.key] == e.ptr {
		delete(c.byKey, e.key)
	}
}
