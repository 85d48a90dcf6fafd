package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"sparsetask/internal/matgen"
	"sparsetask/internal/server"
	"sparsetask/internal/sparse"
)

// The two job streams. Both derive every draw from the workload seed; the
// system under test sees only the generated job specs.

// ---- serve-repeat: a small working set submitted over and over ----

// burstSize is how many same-matrix cg or pcg jobs, with distinct right-hand
// sides, a client submits back to back in a burst turn. A client's turns come
// from a deck of burstTurns bursts and eigenTurns eigen jobs (70 % / 30 %),
// each kind spread evenly over its (matrix, solver) pairs, which the client's
// seeded stream shuffles and reshuffles: a random order, but the same mix in
// every stretch of forty turns, whatever the seed.
const (
	burstSize  = 4
	burstTurns = 28
	eigenTurns = 12
)

// turn is one card of the deck.
type turn struct {
	matrix suiteRef
	solver string
}

// workingSetSeed generates the working set's matrices. The set is part of the
// workload, like a deployment's own matrices; the workload seed drives the
// traffic over it — turn order, right-hand sides, start vectors.
const workingSetSeed = 1

// suiteRef names a matgen suite matrix the way a job spec does.
type suiteRef struct {
	suite, preset string
}

func (m suiteRef) label() string { return m.suite + "/" + m.preset }

// repeatStream: seven turns in ten are a burst of four cg or pcg jobs on one
// of two matrices, the others one lanczos or lobpcg job — so the plan cache,
// factor cache, router fingerprint cache and the coalescer all hit, and what
// remains is engine overhead.
type repeatStream struct {
	seed   int64
	linear []suiteRef // matrices of the cg/pcg bursts
	eigen  []suiteRef // matrices of the eigen jobs
	rngs   []*rand.Rand
	decks  [][]turn // per client: the turns left in its current deck
	turns  []int    // per client: turns taken
}

func newRepeatStream(e env) *repeatStream {
	preset := "small"
	if e.quick {
		preset = "tiny"
	}
	s := &repeatStream{
		seed:   e.seed,
		linear: []suiteRef{{"inline1", preset}, {"Bump_2911", preset}},
		eigen:  []suiteRef{{"nlpkkt160", preset}, {"inline1", preset}},
	}
	for ci := 0; ci < e.p; ci++ {
		s.rngs = append(s.rngs, clientRNG(e.seed, ci))
	}
	s.decks, s.turns = make([][]turn, e.p), make([]int, e.p)
	return s
}

// deal returns a freshly shuffled deck.
func (s *repeatStream) deal(rng *rand.Rand) []turn {
	var deck []turn
	for i := 0; i < burstTurns; i++ {
		deck = append(deck, turn{s.linear[i%2], []string{"cg", "pcg"}[i/2%2]})
	}
	for i := 0; i < eigenTurns; i++ {
		deck = append(deck, turn{s.eigen[i%2], []string{"lanczos", "lobpcg"}[i/2%2]})
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func (s *repeatStream) wantCached() bool { return true }

// job builds one working-set job. Eigen jobs always start from the workload
// seed, so one reference per (matrix, solver) verifies them all.
func (s *repeatStream) job(m suiteRef, solver string, rhsSeed int64) *jobReq {
	spec := server.JobSpec{
		Solver: solver, Backend: jobBackend, Seed: rhsSeed,
		Matrix: server.MatrixSpec{Suite: m.suite, Preset: m.preset, Seed: workingSetSeed},
	}
	if solver == "lanczos" || solver == "lobpcg" {
		spec.K, spec.Seed = eigenK, s.seed
	}
	if solver == "lobpcg" {
		spec.Iters = lobpcgIters
	}
	req, err := newJobReq(spec, m.label(), m.label()+"|"+solver, func() (*sparse.COO, error) {
		ms, err := matgen.SpecByName(m.suite)
		if err != nil {
			return nil, err
		}
		preset, err := matgen.PresetByName(m.preset)
		if err != nil {
			return nil, err
		}
		return ms.Build(preset, workingSetSeed), nil
	})
	if err != nil {
		panic(err) // a JobSpec of strings and integers always marshals
	}
	return req
}

// warmup is one job per (matrix, solver) pair of the working set.
func (s *repeatStream) warmup() []*jobReq {
	var out []*jobReq
	for _, m := range s.linear {
		out = append(out, s.job(m, "cg", s.seed), s.job(m, "pcg", s.seed))
	}
	for _, m := range s.eigen {
		out = append(out, s.job(m, "lanczos", 0), s.job(m, "lobpcg", 0))
	}
	return out
}

func (s *repeatStream) next(ci int) []*jobReq {
	rng := s.rngs[ci]
	if len(s.decks[ci]) == 0 {
		s.decks[ci] = s.deal(rng)
	}
	t := s.decks[ci][0]
	s.decks[ci] = s.decks[ci][1:]
	out := make([]*jobReq, 1)
	if t.solver == "cg" || t.solver == "pcg" {
		out = make([]*jobReq, burstSize)
	}
	first := rng.Int63n(1<<40) + 1
	for j := range out {
		out[j] = s.job(t.matrix, t.solver, first+int64(j))
		out[j].seq = (s.turns[ci]*len(s.rngs)+ci)*burstSize + j
	}
	s.turns[ci]++
	return out
}

// ---- serve-cold: every job a matrix nobody has seen ----

// coldStream: every job is a single job carrying an inline MatrixMarket
// document, and no two documents share a structural fingerprint — so every
// cache misses and inserts, the coalescer has nothing to merge, and parsing,
// fingerprinting, autotune, factorization and graph build dominate.
type coldStream struct {
	warm []*jobReq
	mu   sync.Mutex
	jobs []*jobReq
	used int
}

func (s *coldStream) wantCached() bool  { return false }
func (s *coldStream) warmup() []*jobReq { return s.warm }

func (s *coldStream) next(int) []*jobReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used == len(s.jobs) {
		return nil
	}
	s.used++
	return s.jobs[s.used-1 : s.used]
}

// Bounds of the generated matrices' sizes, in stored entries, and the rows of
// the warm-up matrix (mid-range: 15 k entries).
const (
	coldMinNNZ     = 5_000
	coldMaxNNZ     = 25_000
	coldWarmupRows = 3_000
)

// coldMatrix is one drawn matrix: a generator call with seed-drawn dimensions.
type coldMatrix struct {
	label string
	gen   func() *sparse.COO
}

// The four generator families. cg and pcg only run on the SPD ones.
const (
	famFEM = iota
	famSPD
	famRMAT
	famKKT
)

func drawColdMatrix(rng *rand.Rand, family int) coldMatrix {
	seed := rng.Int63n(1<<40) + 1
	switch family {
	case famFEM:
		for {
			nx, ny, nz := 5+rng.Intn(8), 5+rng.Intn(8), 5+rng.Intn(8)
			dof, stencil := 1+rng.Intn(2), []int{7, 27}[rng.Intn(2)]
			if est := nx * ny * nz * stencil * dof * dof; est < coldMinNNZ || est > coldMaxNNZ {
				continue
			}
			return coldMatrix{fmt.Sprintf("fem3d-%dx%dx%d-d%d-s%d", nx, ny, nz, dof, stencil),
				func() *sparse.COO { return matgen.FEM3D(nx, ny, nz, dof, stencil, seed) }}
		}
	case famKKT:
		g := 6 + rng.Intn(4)
		return coldMatrix{fmt.Sprintf("kkt-%d", g), func() *sparse.COO { return matgen.KKT(g, seed) }}
	case famRMAT:
		rows := 512 << rng.Intn(3)
		deg := float64(coldMinNNZ+rng.Intn(coldMaxNNZ-coldMinNNZ)) / float64(2*rows)
		return coldMatrix{fmt.Sprintf("rmat-%d-deg%.2f", rows, deg),
			func() *sparse.COO { return matgen.RMAT(rows, deg, 0.57, seed) }}
	default:
		rows := coldMinNNZ/5 + rng.Intn((coldMaxNNZ-coldMinNNZ)/5)
		return coldMatrix{fmt.Sprintf("spdlap-%d", rows), func() *sparse.COO { return matgen.SPDLaplacian(rows, seed) }}
	}
}

// coldCard is one (family, solver) pair of the cold deck.
type coldCard struct {
	family int
	solver string
}

// coldDeck is the twelve (family, solver) pairs jobs cycle through, in an
// order the seed shuffles anew each cycle: all four solvers on the two SPD
// families, the eigensolvers on the two indefinite ones. Like the working-set
// deck, it keeps the mix of every stretch of jobs the same whatever the seed,
// so seeds differ in dimensions and values, not in how many cg jobs they hold.
func coldDeck(rng *rand.Rand) []coldCard {
	var deck []coldCard
	for _, solver := range []string{"cg", "pcg", "lanczos", "lobpcg"} {
		deck = append(deck, coldCard{famFEM, solver}, coldCard{famSPD, solver})
	}
	for _, solver := range []string{"lanczos", "lobpcg"} {
		deck = append(deck, coldCard{famRMAT, solver}, coldCard{famKKT, solver})
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// kktStructures is how many distinct KKT structures the size range holds;
// once they are used up, KKT cards draw from the RMAT family instead.
const kktStructures = 4

// newColdStream pre-generates n measured jobs and the warm-up jobs from the
// seed. A matrix whose structural fingerprint was already
// drawn, or whose size falls outside the bounds, is redrawn — dimensions are
// drawn without replacement.
func newColdStream(e env, n int) (*coldStream, error) {
	rng := rand.New(rand.NewSource(e.seed))
	job := func(solver string, m coldMatrix, coo *sparse.COO) (*jobReq, error) {
		spec := server.JobSpec{Solver: solver, Backend: jobBackend, Seed: rng.Int63n(1<<40) + 1,
			Matrix: server.MatrixSpec{MM: matrixMarket(coo)}}
		if solver == "lanczos" || solver == "lobpcg" {
			spec.K = eigenK
		}
		if solver == "lobpcg" {
			spec.Iters = lobpcgIters
		}
		return newJobReq(spec, m.label, "", func() (*sparse.COO, error) { return m.gen(), nil })
	}
	seen := map[uint64]bool{}
	kkt := 0
	draw := func(card coldCard) (*jobReq, error) {
		if card.family == famKKT && kkt == kktStructures {
			card.family = famRMAT
		}
		for {
			m := drawColdMatrix(rng, card.family)
			coo := m.gen()
			if nnz := coo.NNZ(); nnz < coldMinNNZ || nnz > coldMaxNNZ {
				continue
			}
			fp := sparse.ComputeStats(coo.ToCSR()).Fingerprint()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			if card.family == famKKT {
				kkt++
			}
			return job(card.solver, m, coo)
		}
	}
	// The warm-up jobs — one per solver, so every runtime, connection and lazy
	// pool is up before the first measured job — share one matrix of a fixed
	// size with seeded values, so that set-up costs the same for every seed.
	s := &coldStream{}
	warm := coldMatrix{fmt.Sprintf("spdlap-%d", coldWarmupRows),
		func() *sparse.COO { return matgen.SPDLaplacian(coldWarmupRows, e.seed) }}
	for _, solver := range []string{"cg", "pcg", "lanczos", "lobpcg"} {
		req, err := job(solver, warm, warm.gen())
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, req)
	}
	seen[sparse.ComputeStats(warm.gen().ToCSR()).Fingerprint()] = true
	for len(s.jobs) < n {
		for _, card := range coldDeck(rng) {
			req, err := draw(card)
			if err != nil {
				return nil, err
			}
			req.seq = len(s.jobs)
			s.jobs = append(s.jobs, req)
		}
	}
	return s, nil
}

// matrixMarket renders a symmetric matrix as a "coordinate real symmetric"
// document (lower triangle only). Values are written with the shortest digits
// that parse back to the same float64, so the shard solves exactly the matrix
// the references are computed on.
func matrixMarket(a *sparse.COO) string {
	lower := 0
	for k := range a.V {
		if a.I[k] >= a.J[k] {
			lower++
		}
	}
	buf := make([]byte, 0, 32*lower+64)
	buf = append(buf, "%%MatrixMarket matrix coordinate real symmetric\n"...)
	buf = fmt.Appendf(buf, "%d %d %d\n", a.Rows, a.Cols, lower)
	for k, v := range a.V {
		if a.I[k] < a.J[k] {
			continue
		}
		buf = strconv.AppendInt(buf, int64(a.I[k])+1, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(a.J[k])+1, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		buf = append(buf, '\n')
	}
	return string(buf)
}
