package route

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sparsetask/internal/server"
)

// fpCache memoizes suite matrices' fingerprints per matrix identity. The
// fingerprint is a pure function of the spec (server.SpecFingerprint) but
// computing it generates the matrix — far too expensive per request — while
// serving traffic re-submits a small working set of specs: the same LRU shape
// the shard-side caches exploit. Entries are keyed by MatrixSpec.Identity, a
// short string. Inline matrices never come here: they are placed by their
// header (headerKey).
type fpCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses atomic.Int64
}

type fpEntry struct {
	id string
	fp uint64
}

func newFPCache(capacity int) *fpCache {
	if capacity < 1 {
		capacity = 1
	}
	return &fpCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// fingerprint returns the spec's structural fingerprint, computing and
// caching it on miss. The matrix build runs outside the lock so concurrent
// misses don't serialize; a racing double-compute is idempotent.
func (c *fpCache) fingerprint(spec server.MatrixSpec) (uint64, error) {
	id := spec.Identity()
	c.mu.Lock()
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		fp := el.Value.(*fpEntry).fp
		c.mu.Unlock()
		c.hits.Add(1)
		return fp, nil
	}
	c.mu.Unlock()
	fp, err := server.SpecFingerprint(spec)
	if err != nil {
		return 0, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	if _, ok := c.items[id]; !ok {
		c.items[id] = c.ll.PushFront(&fpEntry{id: id, fp: fp})
		for c.ll.Len() > c.cap {
			el := c.ll.Back()
			c.ll.Remove(el)
			delete(c.items, el.Value.(*fpEntry).id)
		}
	}
	c.mu.Unlock()
	return fp, nil
}

// stats reports hits, misses, and current size.
func (c *fpCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	size = c.ll.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), size
}
