package server

import (
	"fmt"
	"hash/maphash"

	"sparsetask/internal/sparse"
)

// identitySeeds key the two hashes of an inline document's identity. They are
// drawn once per process, so identities mean nothing outside it.
var identitySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// Identity names the matrix's *values*, not just its structure: the
// generator coordinates (suite, preset, generator seed) for synthetic
// matrices, or the length and two independently seeded 64-bit hashes of the
// MatrixMarket document for inline ones. The batch coalescer, the shard's
// operator cache, and the router's fingerprint cache (suite matrices) key on
// it, because two generator seeds share a sparsity pattern — and hence a
// structural fingerprint — while holding different values. The caches outlive
// the request and hold client-supplied text, so a collision must not hand one
// client another client's matrix: the seeds are secret and per-process, which
// leaves nothing to search for collisions against offline, and 128 keyed bits
// plus the length put an accidental one out of reach. (maphash runs at memory
// speed; SHA-256 over the document cost a measurable share of a cold job.)
// Defaults are normalized the same way buildMatrix applies them, so
// equivalent specs get equal identities.
func (s *MatrixSpec) Identity() string {
	if s.MM != "" {
		return fmt.Sprintf("mm:%d:%016x%016x", len(s.MM),
			maphash.String(identitySeeds[0], s.MM), maphash.String(identitySeeds[1], s.MM))
	}
	preset := s.Preset
	if preset == "" {
		preset = "tiny"
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return fmt.Sprintf("suite:%s|%s|%d", s.Suite, preset, seed)
}

// SpecFingerprint materializes a spec's matrix and returns its structural
// fingerprint (sparse.Stats.Fingerprint) — the affinity key the scale-out
// router (internal/route) hashes to pin repeat traffic for a suite matrix
// onto the shard already holding its autotune plan and its cached operator.
// It is a pure function of the spec, so router and shard agree without a
// round trip; the router memoizes it per MatrixSpec.Identity because building
// the matrix is the expensive part. (Inline matrices are placed by their
// MatrixMarket header instead, which the router reads without parsing the
// entries.)
func SpecFingerprint(spec MatrixSpec) (uint64, error) {
	coo, err := spec.buildMatrix()
	if err != nil {
		return 0, err
	}
	return sparse.ComputeStats(coo.ToCSR()).Fingerprint(), nil
}
