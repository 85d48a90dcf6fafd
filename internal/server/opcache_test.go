package server

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/sparse"
)

// Tests for the identity-keyed operator cache. Like the coalescer tests they
// drive the Engine API directly and run under -race in the Makefile matrix:
// the pool's workers share operators, and one operator's storage, factors,
// and levels are built by whichever job gets there first.

// solve submits one job and waits for it to finish successfully.
func solve(t *testing.T, e *Engine, spec JobSpec) *JobResult {
	t.Helper()
	j, _, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v := waitTerminal(t, j, 60*time.Second)
	if v.State != StateDone {
		t.Fatalf("%s job ended %s: %s", spec.Solver, v.State, v.Error)
	}
	return v.Result
}

// sameNumbers requires two results to agree bit for bit in everything the
// solve computed.
func sameNumbers(t *testing.T, what string, got, want *JobResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Eigenvalues, want.Eigenvalues) ||
		got.Iterations != want.Iterations || got.Residual != want.Residual {
		t.Errorf("%s: eigenvalues %v, %d iterations, residual %v; want %v, %d, %v", what,
			got.Eigenvalues, got.Iterations, got.Residual,
			want.Eigenvalues, want.Iterations, want.Residual)
	}
	if got.Block != want.Block || got.SymStorage != want.SymStorage {
		t.Errorf("%s: block %d sym %v, want %d %v", what, got.Block, got.SymStorage, want.Block, want.SymStorage)
	}
}

func suiteSpec(solver string, seed int64) JobSpec {
	spec := JobSpec{Solver: solver, Backend: "deepsparse", K: 4,
		Matrix: MatrixSpec{Suite: "inline1", Preset: "tiny", Seed: seed}}
	if solver == "lobpcg" {
		spec.Iters = 5
	}
	return spec
}

// suiteAsMM renders the inline1/tiny matrix of the given generator seed as a
// MatrixMarket document.
func suiteAsMM(t *testing.T, seed int64) string {
	t.Helper()
	coo, err := (&MatrixSpec{Suite: "inline1", Seed: seed}).buildMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return cooMM(t, coo)
}

// cooMM renders a matrix as a MatrixMarket document (%.17g, so the values
// round-trip exactly).
func cooMM(t *testing.T, coo *sparse.COO) string {
	t.Helper()
	coo.Compact()
	var b strings.Builder
	if err := sparse.WriteMatrixMarket(&b, coo); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// A job served from the cached operator must compute exactly what a fresh
// engine computes from a cold build, for every solver kind.
func TestCacheHitBitIdenticalToColdBuild(t *testing.T) {
	warm := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	for _, solver := range []string{"lanczos", "lobpcg", "cg", "pcg"} {
		spec := suiteSpec(solver, 1)
		cold := solve(t, newTestEngine(t, Config{Workers: 1, RTWorkers: 2}), spec)
		if cold.MatrixSource != "built" {
			t.Errorf("%s on a fresh engine: matrix_source = %q, want built", solver, cold.MatrixSource)
		}
		solve(t, warm, spec) // builds for the first solver, tunes for each
		hit := solve(t, warm, spec)
		if hit.MatrixSource != "cache" || hit.PlanSource != "cache" {
			t.Errorf("%s repeat: matrix_source %q plan_source %q, want cache cache",
				solver, hit.MatrixSource, hit.PlanSource)
		}
		sameNumbers(t, solver+" from cache", hit, cold)
	}
	if st, f := warm.operators.Stats(); st.Builds != 1 || f.Factorizations != 1 {
		t.Errorf("%d builds and %d factorizations for one matrix, want 1 and 1", st.Builds, f.Factorizations)
	}
}

// The same for a coalesced batch: the second batch over a matrix reuses the
// operator, and every member's column agrees with a fresh engine's batch.
func TestCacheHitBitIdenticalCoalescedBatch(t *testing.T) {
	cfg := Config{Workers: 1, RTWorkers: 2, CoalesceMax: 3, CoalesceWindow: 300 * time.Millisecond}
	batch := func(e *Engine) []*JobResult {
		t.Helper()
		jobs := make([]*Job, 3)
		for i := range jobs {
			spec := suiteSpec("pcg", 1)
			spec.Seed = int64(i + 1)
			j, _, err := e.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		out := make([]*JobResult, len(jobs))
		for i, j := range jobs {
			v := waitTerminal(t, j, 60*time.Second)
			if v.State != StateDone || v.Result.BatchSize != 3 {
				t.Fatalf("member %d ended %s (%s), result %+v; want done in a batch of 3", i, v.State, v.Error, v.Result)
			}
			out[i] = v.Result
		}
		return out
	}
	cold := batch(newTestEngine(t, cfg))
	warm := newTestEngine(t, cfg)
	batch(warm)
	for i, r := range batch(warm) {
		if r.MatrixSource != "cache" || r.FactorSource != "cache" {
			t.Errorf("repeat batch member %d: matrix_source %q factor_source %q, want cache cache",
				i, r.MatrixSource, r.FactorSource)
		}
		sameNumbers(t, "batched pcg from cache", r, cold[r.BatchIndex])
	}
	// Within the batch that built the operator, only the first member did.
	for _, r := range cold {
		if want := map[bool]string{true: "built", false: "cache"}[r.BatchIndex == 0]; r.MatrixSource != want {
			t.Errorf("building batch member %d: matrix_source = %q, want %q", r.BatchIndex, r.MatrixSource, want)
		}
	}
}

// Stale factors across values: two generator seeds of one suite matrix share
// a structural fingerprint — and so a tiling plan — but not their values, so
// the second seed must factorize for itself and converge exactly as it does
// on an engine that never saw the first.
func TestPCGFactorsFollowValuesNotStructure(t *testing.T) {
	fp1, err1 := SpecFingerprint(MatrixSpec{Suite: "inline1", Seed: 1})
	fp2, err2 := SpecFingerprint(MatrixSpec{Suite: "inline1", Seed: 2})
	if err1 != nil || err2 != nil || fp1 != fp2 {
		t.Fatalf("fingerprints %x (%v) and %x (%v): the test needs two seeds sharing one", fp1, err1, fp2, err2)
	}
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	solve(t, e, suiteSpec("pcg", 1))
	second := solve(t, e, suiteSpec("pcg", 2))
	if second.PlanSource != "cache" {
		t.Errorf("second seed plan_source = %q, want cache (same structure)", second.PlanSource)
	}
	if second.MatrixSource != "built" || second.FactorSource != "computed" {
		t.Errorf("second seed matrix_source %q factor_source %q, want built computed",
			second.MatrixSource, second.FactorSource)
	}
	fresh := solve(t, newTestEngine(t, Config{Workers: 1, RTWorkers: 2}), suiteSpec("pcg", 2))
	sameNumbers(t, "second seed after the first", second, fresh)
}

// An inline document and a suite matrix with one structural fingerprint but
// different values never share storage or factors — and neither do the suite
// matrix and a byte-exact document of itself, whose identities differ.
func TestInlineAndSuiteMatricesNeverShare(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	suite := solve(t, e, suiteSpec("pcg", 1))
	for _, seed := range []int64{2, 1} {
		spec := suiteSpec("pcg", 0)
		spec.Matrix = MatrixSpec{MM: suiteAsMM(t, seed)}
		got := solve(t, e, spec)
		if got.MatrixSource != "built" || got.FactorSource != "computed" {
			t.Errorf("document of seed %d: matrix_source %q factor_source %q, want built computed",
				seed, got.MatrixSource, got.FactorSource)
		}
		if seed == 1 {
			sameNumbers(t, "document of the suite matrix itself", got, suite)
			continue
		}
		sameNumbers(t, "document with other values", got,
			solve(t, newTestEngine(t, Config{Workers: 1, RTWorkers: 2}), spec))
	}
	st, f := e.operators.Stats()
	if st.Builds != 3 || st.Size != 3 || f.Factorizations != 3 || st.Hits != 0 {
		t.Errorf("%d builds, %d entries, %d factorizations, %d hits; want 3, 3, 3, 0",
			st.Builds, st.Size, f.Factorizations, st.Hits)
	}
}

// N concurrent submissions of one unseen matrix build it exactly once,
// whether the build runs in a worker (a suite matrix) or at admission (an
// inline document): the first lookup loads it, the rest wait on that load.
func TestConcurrentMissesBuildOnce(t *testing.T) {
	const n = 8
	for _, m := range []MatrixSpec{{Suite: "inline1", Preset: "tiny", Seed: 3}, {MM: suiteAsMM(t, 3)}} {
		e := newTestEngine(t, Config{Workers: 4, RTWorkers: 1})
		jobs := make([]*Job, n)
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Alternate tilings so workers also race to add storage.
				spec := suiteSpec("lanczos", 3)
				spec.Matrix = m
				spec.Block = 64 << (i % 2)
				j, _, err := e.Submit(spec)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				jobs[i] = j
			}(i)
		}
		wg.Wait()
		built := 0
		var first [2]*JobResult
		for i, j := range jobs {
			if j == nil {
				t.FailNow()
			}
			v := waitTerminal(t, j, 60*time.Second)
			if v.State != StateDone {
				t.Fatalf("job %d ended %s: %s", i, v.State, v.Error)
			}
			if v.Result.MatrixSource == "built" {
				built++
			}
			tiling := i % 2
			if first[tiling] == nil {
				first[tiling] = v.Result
			}
			sameNumbers(t, "concurrent job", v.Result, first[tiling])
		}
		st, _ := e.operators.Stats()
		if built != 1 || st.Builds != 1 || st.Misses != 1 || st.Hits != n-1 || st.Size != 1 {
			t.Errorf("%+v: %d jobs reported built; cache %d builds, %d misses, %d hits, %d entries; want 1, 1, 1, %d, 1",
				m.Identity(), built, st.Builds, st.Misses, st.Hits, st.Size, n-1)
		}
	}
}

// A submission refused after its document was parsed — here by a full queue —
// leaves the operator cached: the retry finds it, and reports the cache as
// its matrix source.
func TestRefusedSubmissionLeavesOperatorCached(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueSize: 1, RTWorkers: 1})
	blocker := JobSpec{Solver: "lobpcg", Backend: "deepsparse", Iters: 500000, Matrix: MatrixSpec{MM: diag4}}
	var waiting []*Job
	for i := 0; i < 3; i++ { // one running, one in the dispatcher's hand, one queued
		j, _, err := e.Submit(blocker)
		if err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
		waiting = append(waiting, j)
		for deadline := time.Now().Add(10 * time.Second); i < 2 && queueDepth(e) != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the dispatcher never took a job off the queue")
			}
		}
	}
	spec := cgSpec(spdTridiagMM(40), 1)
	if j, _, err := e.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, %v; want ErrQueueFull", j, err)
	}
	if st, _ := e.operators.Stats(); st.Builds != 2 || st.Size != 2 {
		t.Errorf("after the refusal: %d builds, %d entries; want 2 and 2 (blockers' matrix and the refused one)", st.Builds, st.Size)
	}
	for i := len(waiting) - 1; i >= 0; i-- {
		e.Cancel(waiting[i])
		waitTerminal(t, waiting[i], 30*time.Second)
	}
	if res := solve(t, e, spec); res.MatrixSource != "cache" {
		t.Errorf("retry after the refusal: matrix_source %q, want cache", res.MatrixSource)
	}
	if st, _ := e.operators.Stats(); st.Builds != 2 || e.metrics.Submitted.Load() != 4 || e.metrics.Rejected.Load() != 1 {
		t.Errorf("%d builds, %d submitted, %d rejected; want 2, 4, 1", st.Builds, e.metrics.Submitted.Load(), e.metrics.Rejected.Load())
	}
}

// queueDepth is how many admitted jobs the dispatcher has not taken yet.
func queueDepth(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// An explicit block override reuses the matrix's operator and adds a second
// tiling to it.
func TestBlockOverrideAddsStorageToOperator(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	tuned := solve(t, e, suiteSpec("cg", 1))
	before, _ := e.operators.Stats()

	spec := suiteSpec("cg", 1)
	spec.Block = tuned.Block / 2
	forced := solve(t, e, spec)
	if forced.MatrixSource != "cache" || forced.PlanSource != "request" || forced.Block != spec.Block {
		t.Errorf("override: matrix_source %q plan_source %q block %d, want cache request %d",
			forced.MatrixSource, forced.PlanSource, forced.Block, spec.Block)
	}
	after, _ := e.operators.Stats()
	if after.Builds != 1 || after.Size != 1 || after.Bytes <= before.Bytes {
		t.Errorf("after override: %d builds, %d entries, %d bytes (was %d); want 1, 1, more",
			after.Builds, after.Size, after.Bytes, before.Bytes)
	}
	op, _, err := e.operators.get(spec.Matrix.Identity(), &spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	op.tileMu.Lock()
	_, hasTuned := op.storage[tuned.Block]
	_, hasForced := op.storage[spec.Block]
	tilings := len(op.storage)
	op.tileMu.Unlock()
	if tilings != 2 || !hasTuned || !hasForced {
		t.Errorf("operator holds %d tilings (tuned %v, forced %v), want both", tilings, hasTuned, hasForced)
	}
	// Same block again: nothing new is built or charged.
	solve(t, e, spec)
	if again, _ := e.operators.Stats(); again.Bytes != after.Bytes {
		t.Errorf("repeat at a held block size grew the cache from %d to %d bytes", after.Bytes, again.Bytes)
	}
}

// Drain must wait out a build in flight — and the worker blocked on that
// same build — and let both jobs finish.
func TestDrainWithBuildInFlight(t *testing.T) {
	e := NewEngine(Config{Workers: 2, RTWorkers: 1})
	spec := JobSpec{Solver: "lanczos", Backend: "deepsparse", K: 4,
		Matrix: MatrixSpec{Suite: "inline1", Preset: "small"}}
	a, _, errA := e.Submit(spec)
	b, _, errB := e.Submit(spec)
	if errA != nil || errB != nil {
		t.Fatalf("submit: %v, %v", errA, errB)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range []*Job{a, b} {
		if v := j.View(); v.State != StateDone {
			t.Errorf("job %s ended %s after drain: %s", j.ID, v.State, v.Error)
		}
	}
	if st, _ := e.operators.Stats(); st.Builds != 1 {
		t.Errorf("builds = %d, want 1", st.Builds)
	}
	if _, _, err := e.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
}

// ------------------------------------------------------------ unit tests

// tridiagSpec is an inline matrix whose COO costs 16·(3n−2) bytes.
func tridiagSpec(n int) *MatrixSpec { return &MatrixSpec{MM: spdTridiagMM(n)} }

func mustGet(t *testing.T, c *OperatorCache, spec *MatrixSpec) (*operator, bool) {
	t.Helper()
	op, built, err := c.get(spec.Identity(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return op, built
}

func TestOperatorCacheLRU(t *testing.T) {
	const entry = 16 * (3*10 - 2)
	c := NewOperatorCache(2*entry + entry/2) // room for two, not three
	// Three matrices of one size: same pattern, different diagonals.
	m1 := tridiagSpec(10)
	s2 := &MatrixSpec{MM: strings.ReplaceAll(m1.MM, "4.0", "5.0")}
	s3 := &MatrixSpec{MM: strings.ReplaceAll(m1.MM, "4.0", "6.0")}
	mustGet(t, c, m1)
	mustGet(t, c, s2)
	if _, built := mustGet(t, c, m1); built {
		t.Fatal("second get of matrix 1 rebuilt it")
	}
	mustGet(t, c, s3) // evicts 2 (1 was refreshed by the get)
	if _, built := mustGet(t, c, m1); built {
		t.Error("matrix 1 evicted despite being most recently used")
	}
	st, _ := c.Stats()
	if st.Size != 2 || st.Bytes != 2*entry || st.Evictions != 1 {
		t.Errorf("%d entries, %d bytes, %d evictions; want 2, %d, 1", st.Size, st.Bytes, st.Evictions, 2*entry)
	}
	if _, built := mustGet(t, c, s2); !built {
		t.Error("matrix 2 survived eviction; LRU order is wrong")
	}
	st, _ = c.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Builds != 4 || st.Evictions != 2 {
		t.Errorf("hits/misses/builds/evictions = %d/%d/%d/%d, want 2/4/4/2", st.Hits, st.Misses, st.Builds, st.Evictions)
	}
}

// Growth is charged too: tiling and factorizing a resident operator can push
// a colder one out, and an evicted operator that held factors is counted in
// the factor view.
func TestOperatorCacheChargesGrowth(t *testing.T) {
	const entry = 16 * (3*10 - 2)
	c := NewOperatorCache(2*entry + entry/2)
	cold, _ := mustGet(t, c, tridiagSpec(10))
	if _, _, _, source, err := cold.preconditioner(4); err != nil || source != "computed" {
		t.Fatalf("preconditioner: source %q, err %v", source, err)
	}
	if st, f := c.Stats(); st.Size != 0 || st.Bytes != 0 || f.Evictions != 1 || f.Size != 0 {
		t.Errorf("after outgrowing the budget alone: %+v %+v, want an empty cache and one factor eviction", st, f)
	}
	// Evicted, the operator still serves the job that holds it.
	if _, _, _, source, err := cold.preconditioner(4); err != nil || source != "cache" {
		t.Errorf("evicted operator: source %q, err %v; want cache, nil", source, err)
	}

	hot, _ := mustGet(t, c, tridiagSpec(10))
	mustGet(t, c, tridiagSpec(11))
	if _, err := hot.storageFor(4); err != nil { // the older entry grows past the budget…
		t.Fatal(err)
	}
	if _, built := mustGet(t, c, tridiagSpec(11)); built { // …and, least recently used, is what goes
		t.Error("growth of the older entry evicted the newer one")
	}
	if _, built := mustGet(t, c, tridiagSpec(10)); !built {
		t.Error("entry that outgrew the budget from the cold end was retained")
	}
}

// An operator larger than the whole budget is built and usable, but not
// retained — and does not push the others out on its way through.
func TestOperatorCacheOverBudgetNotRetained(t *testing.T) {
	const entry = 16 * (3*10 - 2)
	c := NewOperatorCache(entry)
	small := tridiagSpec(10)
	mustGet(t, c, small)
	big, built := mustGet(t, c, tridiagSpec(100))
	if !built || big.coo.Rows != 100 {
		t.Fatalf("over-budget operator: built %v, %d rows", built, big.coo.Rows)
	}
	if m, err := big.storageFor(16); err != nil || m.NNZ() == 0 {
		t.Errorf("over-budget operator unusable: %v", err)
	}
	if _, built := mustGet(t, c, tridiagSpec(100)); !built {
		t.Error("over-budget operator was retained")
	}
	if _, built := mustGet(t, c, small); built {
		t.Error("over-budget operator pushed the resident one out")
	}
	if st, _ := c.Stats(); st.Bytes > st.CapacityBytes {
		t.Errorf("cache holds %d bytes over a budget of %d", st.Bytes, st.CapacityBytes)
	}
}

// A parse failure is reported to every job that asks, and never cached.
func TestOperatorCacheFailedBuildNotRetained(t *testing.T) {
	c := NewOperatorCache(1 << 20)
	bad := &MatrixSpec{MM: "%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n"}
	for i := 0; i < 2; i++ {
		if _, _, err := c.get(bad.Identity(), bad); err == nil {
			t.Fatal("out-of-range entry parsed")
		}
	}
	if st, _ := c.Stats(); st.Size != 0 || st.Bytes != 0 || st.Builds != 2 {
		t.Errorf("%d entries, %d bytes, %d builds after two failed builds; want 0, 0, 2", st.Size, st.Bytes, st.Builds)
	}
}

// A Jacobi fallback has no triangular structure: preconditioner must return
// nil levels without counting an analysis, at any block size.
func TestOperatorJacobiHasNoLevels(t *testing.T) {
	c := NewOperatorCache(1 << 20)
	// Symmetric but indefinite: the second pivot is 1 − 2² < 0.
	op, _ := mustGet(t, c, &MatrixSpec{MM: "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n2 1 2.0\n2 2 1.0\n"})
	m, low, up, source, err := op.preconditioner(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind.String() != "jacobi" || low != nil || up != nil || source != "computed" {
		t.Errorf("preconditioner = %s, levels %v/%v, source %q; want jacobi, nil/nil, computed", m.Kind, low, up, source)
	}
	if _, f := c.Stats(); f.LevelAnalyses != 0 || f.Factorizations != 1 {
		t.Errorf("%d level analyses, %d factorizations; want 0, 1", f.LevelAnalyses, f.Factorizations)
	}
}

// Identity must separate what the structural fingerprint cannot, and equate
// specs that differ only in spelled-out defaults.
func TestIdentity(t *testing.T) {
	id := func(s MatrixSpec) string { return s.Identity() }
	if id(MatrixSpec{Suite: "inline1"}) != id(MatrixSpec{Suite: "inline1", Preset: "tiny", Seed: 1}) {
		t.Error("defaults are not normalized")
	}
	distinct := []MatrixSpec{
		{Suite: "inline1"}, {Suite: "inline1", Seed: 2}, {Suite: "inline1", Preset: "small"},
		{Suite: matgen.Suite()[1].Name}, {MM: diag4}, {MM: diag4 + "\n"}, {MM: spdTridiagMM(4)},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		if j, dup := seen[id(s)]; dup {
			t.Errorf("specs %d and %d share identity %q", j, i, id(s))
		}
		seen[id(s)] = i
	}
}

// liveSliceBytes sums len × element size over every slice reachable from v
// through pointers, structs, maps, interfaces and slices of slices, counting a
// backing array once however many headers alias it.
func liveSliceBytes(v reflect.Value, seen map[uintptr]bool) int64 {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return liveSliceBytes(v.Elem(), seen)
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += liveSliceBytes(v.Field(i), seen)
		}
		return n
	case reflect.Map:
		var n int64
		for it := v.MapRange(); it.Next(); {
			n += liveSliceBytes(it.Value(), seen)
		}
		return n
	case reflect.Slice:
		if v.Len() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := int64(v.Len()) * int64(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Struct || k == reflect.Pointer {
			for i := 0; i < v.Len(); i++ {
				n += liveSliceBytes(v.Index(i), seen)
			}
		}
		return n
	}
	return 0
}

// The LRU bound means bytes only if an entry is charged what it holds. After
// pcg jobs at two block sizes the operator's charge is the sum of its live
// slices — matrix, both tilings, factors, and per block size the level
// analyses with the substitution layouts they carry — and a repeat job at a
// held block size analyses and builds nothing.
func TestOperatorChargeEqualsLiveSlices(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	tuned := solve(t, e, suiteSpec("pcg", 1))
	spec := suiteSpec("pcg", 1)
	spec.Block = tuned.Block / 2
	solve(t, e, spec)
	_, f := e.operators.Stats()
	if f.LevelAnalyses != 2 || f.Factorizations != 1 {
		t.Fatalf("two block sizes: %d level analyses, %d factorizations, want 2, 1", f.LevelAnalyses, f.Factorizations)
	}

	op, _, err := e.operators.get(spec.Matrix.Identity(), &spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if op.ic.Kind != precond.KindIC0 || len(op.levels) != 2 {
		t.Fatalf("operator holds %s factors and %d level pairs, want ic0 and 2", op.ic.Kind, len(op.levels))
	}
	seen := map[uintptr]bool{}
	var live int64
	for _, part := range []any{op.coo, op.storage, op.ic, op.levels} {
		live += liveSliceBytes(reflect.ValueOf(part), seen)
	}
	st, _ := e.operators.Stats()
	if st.Size != 1 || st.Bytes != live {
		t.Errorf("cache charges %d bytes for %d entries; the operator's live slices are %d bytes", st.Bytes, st.Size, live)
	}
	for _, lp := range op.levels {
		for _, lv := range []*precond.Levels{lp.lower, lp.upper} {
			if got, want := levelsBytes(lv), liveSliceBytes(reflect.ValueOf(lv), map[uintptr]bool{}); got != want {
				t.Errorf("levelsBytes = %d, the analysis and its layout hold %d", got, want)
			}
		}
	}

	// Repeat jobs at both held block sizes: served from the entry as it is.
	solve(t, e, spec)
	solve(t, e, suiteSpec("pcg", 1))
	again, f2 := e.operators.Stats()
	if f2.LevelAnalyses != 2 || f2.Factorizations != 1 || again.Bytes != st.Bytes {
		t.Errorf("repeat jobs: %d level analyses, %d factorizations, %d bytes; want 2, 1, %d",
			f2.LevelAnalyses, f2.Factorizations, again.Bytes, st.Bytes)
	}
}

// TestTrackedJobDropsInlineDocument: the engine tracks a job for its whole
// life, so the job must not keep an inline document once admission has
// parsed it — neither while it waits or runs nor after it is done.
func TestTrackedJobDropsInlineDocument(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	j, _, err := e.Submit(cgSpec(spdTridiagMM(24), 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.Spec.Matrix.MM); n != 0 {
		t.Fatalf("admitted job holds a %d-byte document", n)
	}
	if v := waitTerminal(t, j, 10*time.Second); v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if n := len(e.JobByID(j.ID).Spec.Matrix.MM); n != 0 {
		t.Fatalf("finished job holds a %d-byte document", n)
	}
}
