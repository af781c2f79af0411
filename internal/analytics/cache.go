package analytics

import (
	"container/list"
	"sync"
)

// Cache is a byte-bounded LRU of marshaled query results. The HTTP
// layer stores the exact response body, so a cache hit is
// bit-identical to the cold query it memoized — no re-marshal, no
// float drift. Keys carry everything that could change the answer
// (build, feed epoch, finish time, artifact, resolved query), which is
// how invalidation works: a build that finishes or a feed that starts
// a new epoch changes the key, and the orphaned entry ages out the LRU
// tail. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int64
	size  int64
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache returns a cache bounded to maxBytes of stored bodies.
// maxBytes <= 0 disables caching (every Get misses, Put is a no-op).
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the cached body for key, promoting it to most recent.
// Callers must not mutate the returned slice.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting least-recently-used entries
// until the byte bound holds. A body larger than the whole bound is
// not cached.
func (c *Cache) Put(key string, body []byte) {
	if int64(len(body)) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.size += int64(len(body)) - int64(len(ent.body))
		ent.body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
		c.size += int64(len(body))
	}
	for c.size > c.max {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, ent.key)
		c.size -= int64(len(ent.body))
	}
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
