// Package counter exercises sparselint/atomicfield: typed atomics only, no
// package-level sync/atomic functions.
package counter

import "sync/atomic"

type stats struct {
	hits  atomic.Int64 // typed: no plain access path
	plain int64
}

// hit is the sanctioned shape.
func (s *stats) hit() int64 { return s.hits.Add(1) }

func (s *stats) bump() {
	atomic.AddInt64(&s.plain, 1) // want `atomic.AddInt64 works on a plain word`
}

func (s *stats) drain() int64 {
	//lint:ignore sparselint/atomicfield fixture: single-owner shutdown path, workers already joined
	return atomic.SwapInt64(&s.plain, 0)
}
