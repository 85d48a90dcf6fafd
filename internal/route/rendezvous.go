package route

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Rank orders shard names for a matrix's placement key by rendezvous
// (highest-random-weight) hashing: each shard scores
// FNV-1a(name ‖ key) and shards rank by descending score. The
// ranking is a pure function of (names, key) — the router keeps no
// placement state — so a restarted router, or a second router instance in
// front of the same fleet, sends every matrix to the same shard and its
// warm plan/factor caches. Removing a shard remaps only the keys
// that ranked it first (every other key's ranking is unchanged with
// the loser deleted) — the stability property modulo hashing lacks. Ties
// break toward the lexically smaller name so the order is total.
func Rank(names []string, fp uint64) []string {
	type scored struct {
		name  string
		score uint64
	}
	ss := make([]scored, len(names))
	for i, n := range names {
		ss[i] = scored{n, score(n, fp)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].name < ss[j].name
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

func score(name string, fp uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], fp)
	h.Write(b[:])
	return h.Sum64()
}
