package route

import "sparsetask/internal/server"

// fpCache memoizes suite matrices' fingerprints per matrix identity. The
// fingerprint is a pure function of the spec (server.SpecFingerprint) but
// computing it generates the matrix — far too expensive per request — while
// serving traffic re-submits a small working set of specs: the same LRU shape
// the shard-side caches exploit. Entries are keyed by MatrixSpec.Identity, a
// short string. Inline matrices never come here: they are placed by their
// header (headerKey).
type fpCache struct{ lru *server.LRU[string, uint64] }

func newFPCache(capacity int) fpCache {
	return fpCache{server.NewLRU[string, uint64](capacity)}
}

// fingerprint returns the spec's structural fingerprint, computing and
// caching it on miss.
func (c fpCache) fingerprint(spec server.MatrixSpec) (uint64, error) {
	return c.lru.Load(spec.Identity(), func() (uint64, error) { return server.SpecFingerprint(spec) })
}

// stats reports hits, misses, and current size.
func (c fpCache) stats() (hits, misses int64, size int) {
	hits, misses, _ = c.lru.Stats()
	return hits, misses, c.lru.Len()
}
