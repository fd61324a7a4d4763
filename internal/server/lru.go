package server

import (
	"container/list"
	"sync"

	"repro/internal/metrics"
)

// lru is a mutex-guarded least-recently-used map with a fixed capacity.
// It bounds the registry's resident scenarios and the result cache; every
// capacity eviction is counted in metrics.ServerEvictions.
type lru struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *lruEntry
	m   map[string]*list.Element

	// onEvict, when set, observes every entry leaving the cache — capacity
	// evictions, remove and removeIf alike (the registry uses it to drop a
	// scenario's cached results alongside the scenario, whichever path
	// removed it). Invoked outside the lru lock; it must not call back into
	// the same lru.
	onEvict func(key string, value any)
}

type lruEntry struct {
	key   string
	value any
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the value and marks the key most recently used.
func (c *lru) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// put inserts or refreshes the key, evicting the least recently used entry
// when over capacity. It returns the value it replaced under key, if any;
// a replaced value does not go to onEvict.
func (c *lru) put(key string, value any) (replaced any) {
	var evicted []*lruEntry
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*lruEntry)
		replaced, e.value = e.value, value
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&lruEntry{key: key, value: value})
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			e := back.Value.(*lruEntry)
			c.ll.Remove(back)
			delete(c.m, e.key)
			evicted = append(evicted, e)
		}
	}
	c.mu.Unlock()
	for _, e := range evicted {
		metrics.ServerEvictions.Inc()
		if c.onEvict != nil {
			c.onEvict(e.key, e.value)
		}
	}
	return replaced
}

// remove deletes the key if present and hands it to onEvict. The removal was
// requested rather than forced by capacity, so no eviction is counted.
func (c *lru) remove(key string) bool {
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return false
	}
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.m, key)
	c.mu.Unlock()
	if c.onEvict != nil {
		c.onEvict(e.key, e.value)
	}
	return true
}

// removeIf deletes every entry whose key satisfies pred, handing each removed
// entry to onEvict once the lock is released.
func (c *lru) removeIf(pred func(key string) bool) {
	var removed []*lruEntry
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry)
		if pred(e.key) {
			c.ll.Remove(el)
			delete(c.m, e.key)
			removed = append(removed, e)
		}
		el = next
	}
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, e := range removed {
			c.onEvict(e.key, e.value)
		}
	}
}

// len returns the number of resident entries.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keysMRU returns the keys from most to least recently used.
func (c *lru) keysMRU() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).key)
	}
	return out
}
