package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"remicss/internal/core"
	"remicss/internal/lp"
	"remicss/internal/obs"
	"remicss/internal/schedule"
)

// scheduleBenchSizes are the channel counts the solve-path benchmark
// sweeps: a small set on the exact mask path and two large sets on the
// wide sampled-generation path.
var scheduleBenchSizes = []int{5, 50, 200}

// scheduleBenchEntry is one channel count's tier latencies in
// BENCH_schedule.json.
type scheduleBenchEntry struct {
	N       int    `json:"n"`
	Program string `json:"program"`
	// BuildNsPerOp is the cost of materializing the program on a cache
	// miss: candidate generation plus constraint assembly, no solving.
	BuildNsPerOp float64 `json:"build_ns_per_op"`
	// Nanoseconds per solve at each tier of the solve layer: a full
	// two-phase simplex from scratch (cold), a warm-started re-solve from
	// the retained basis after an objective perturbation (warm), and a
	// schedule-cache hit on a repeat quantized state (cached). Cold and
	// warm measure the solver on the materialized program; build cost is
	// reported separately above.
	ColdNsPerSolve   float64 `json:"cold_ns_per_solve"`
	WarmNsPerSolve   float64 `json:"warm_ns_per_solve"`
	CachedNsPerSolve float64 `json:"cached_ns_per_solve"`
	// CachedAllocsPerOp must be 0: the hit path is allocation-free.
	CachedAllocsPerOp   int64   `json:"cached_allocs_per_op"`
	WarmSpeedupVsCold   float64 `json:"warm_speedup_vs_cold"`
	CachedSpeedupVsCold float64 `json:"cached_speedup_vs_cold"`
	WarmSolves          int64   `json:"warm_solves"`
	PivotsPerWarmSolve  float64 `json:"pivots_per_warm_solve"`
	// HitRate is hits/(hits+misses) over the cached-tier benchmark's
	// registry: one miss to prime, hits thereafter.
	HitRate float64 `json:"hit_rate"`
}

// scheduleBenchReport is the BENCH_schedule.json schema.
type scheduleBenchReport struct {
	Schema     string               `json:"schema"`
	GOOS       string               `json:"goos"`
	GOARCH     string               `json:"goarch"`
	NumCPU     int                  `json:"num_cpu"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Benchmarks []scheduleBenchEntry `json:"benchmarks"`
}

// benchScheduleSet builds a deterministic random channel set, mirroring
// the schedule package's own large-set tests.
func benchScheduleSet(rng *rand.Rand, n int) core.Set {
	s := make(core.Set, n)
	for i := range s {
		s[i] = core.Channel{
			Risk:  0.05 + 0.9*rng.Float64(),
			Loss:  rng.Float64() * 0.3,
			Delay: time.Duration(1+rng.Intn(100)) * time.Millisecond,
			Rate:  10 + 90*rng.Float64(),
		}
	}
	return s
}

// counterVal reads one counter series from a registry; missing series read
// as zero.
func counterVal(reg *obs.Registry, name string) int64 {
	for _, s := range reg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// benchScheduleTiers measures the three solve tiers for one channel count.
func benchScheduleTiers(n int) (scheduleBenchEntry, error) {
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	set := benchScheduleSet(rng, n)
	const kappa, mu = 2.5, 3.5
	req := schedule.Request{Set: set, Kappa: kappa, Mu: mu, Obj: schedule.ObjectiveRisk, Limited: true}
	// Beyond the exact mask-enumeration range the program runs over
	// generated candidates and its optimum is compacted onto its support.
	program := "section-ivb"
	if n > core.MaxChannels {
		program = "wide"
	}

	solve := func(c *schedule.Cache, kap float64) (schedule.SolveTier, error) {
		r := req
		r.Kappa = kap
		_, tier, err := c.Solve(r)
		return tier, err
	}
	newCache := func(reg *obs.Registry) *schedule.Cache {
		return schedule.NewCache(schedule.CacheConfig{Metrics: reg, MaxEntries: 64})
	}

	// Fail fast before spending benchmark time.
	if _, err := solve(newCache(nil), kappa); err != nil {
		return scheduleBenchEntry{}, fmt.Errorf("n=%d: %w", n, err)
	}

	// Materialize the program once; cold and warm below measure the solve
	// layer on it. On a cache miss both the build and a solve run, so the
	// build cost is benchmarked separately for total-latency context.
	prob, err := req.Program()
	if err != nil {
		return scheduleBenchEntry{}, fmt.Errorf("n=%d: %w", n, err)
	}
	buildRes := benchRunner(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := req.Program(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Cold: a full two-phase simplex from scratch every iteration.
	coldRes := benchRunner(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lp.Solve(prob); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Warm: one retained solver; each iteration perturbs an objective
	// coefficient (the shape of a channel-quality drift between adapt
	// rounds) and re-solves from the retained basis.
	solver := lp.NewSolver()
	baseC := append([]float64(nil), prob.C...)
	_, basis, err := solver.WarmSolve(nil, prob)
	if err != nil {
		return scheduleBenchEntry{}, fmt.Errorf("n=%d: %w", n, err)
	}
	var warmSolves, warmPivots int64
	warmIter := 0
	warmRes := benchRunner(func(b *testing.B) {
		warmSolves, warmPivots = 0, 0
		for i := 0; i < b.N; i++ {
			warmIter++
			j := warmIter % len(prob.C)
			prob.C[j] = baseC[j] * (1 + 1e-5*float64(1+warmIter%7))
			var err error
			_, basis, err = solver.WarmSolve(basis, prob)
			if err != nil {
				b.Fatal(err)
			}
			if st := solver.LastStats(); st.Tier != lp.TierCold {
				warmSolves++
				warmPivots += int64(st.Pivots)
			}
		}
	})

	// Cached: one retained cache queried with the identical state.
	hitReg := obs.NewRegistry()
	hitCache := newCache(hitReg)
	if _, err := solve(hitCache, kappa); err != nil {
		return scheduleBenchEntry{}, err
	}
	cachedRes := benchRunner(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tier, err := solve(hitCache, kappa)
			if err != nil {
				b.Fatal(err)
			}
			if tier != schedule.TierCached {
				b.Fatalf("repeat state resolved at tier %v", tier)
			}
		}
	})
	hits := counterVal(hitReg, "remicss_schedule_cache_hits_total")
	misses := counterVal(hitReg, "remicss_schedule_cache_misses_total")

	e := scheduleBenchEntry{
		N:                 n,
		Program:           program,
		BuildNsPerOp:      float64(buildRes.T.Nanoseconds()) / float64(buildRes.N),
		ColdNsPerSolve:    float64(coldRes.T.Nanoseconds()) / float64(coldRes.N),
		WarmNsPerSolve:    float64(warmRes.T.Nanoseconds()) / float64(warmRes.N),
		CachedNsPerSolve:  float64(cachedRes.T.Nanoseconds()) / float64(cachedRes.N),
		CachedAllocsPerOp: cachedRes.AllocsPerOp(),
		WarmSolves:        warmSolves,
	}
	if e.WarmNsPerSolve > 0 {
		e.WarmSpeedupVsCold = e.ColdNsPerSolve / e.WarmNsPerSolve
	}
	if e.CachedNsPerSolve > 0 {
		e.CachedSpeedupVsCold = e.ColdNsPerSolve / e.CachedNsPerSolve
	}
	if warmSolves > 0 {
		e.PivotsPerWarmSolve = float64(warmPivots) / float64(warmSolves)
	}
	if hits+misses > 0 {
		e.HitRate = float64(hits) / float64(hits+misses)
	}
	return e, nil
}

// runScheduleJSON runs the solve-path tier benchmarks (cold, warm-started,
// cached) across the size sweep and writes BENCH_schedule.json.
func runScheduleJSON(path string) error {
	report := scheduleBenchReport{
		Schema:     "remicss-bench-schedule/v1",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, n := range scheduleBenchSizes {
		e, err := benchScheduleTiers(n)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, e)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	for _, e := range report.Benchmarks {
		fmt.Printf("n=%-4d %-12s build %10.0f ns  cold %10.0f ns  warm %8.0f ns (%5.1fx, %4.1f pivots)  cached %6.0f ns (%7.1fx, %d allocs, hit rate %.3f)\n",
			e.N, e.Program, e.BuildNsPerOp, e.ColdNsPerSolve, e.WarmNsPerSolve,
			e.WarmSpeedupVsCold, e.PivotsPerWarmSolve, e.CachedNsPerSolve,
			e.CachedSpeedupVsCold, e.CachedAllocsPerOp, e.HitRate)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
