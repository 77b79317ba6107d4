package schedule

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"remicss/internal/core"
	"remicss/internal/lp"
	"remicss/internal/obs"
)

func testCache() (*Cache, *obs.Registry) {
	reg := obs.NewRegistry()
	return NewCache(CacheConfig{Metrics: reg}), reg
}

// cacheSchedule is Cache.Solve reduced to its schedule and tier.
func cacheSchedule(c *Cache, req Request) (core.Schedule, SolveTier, error) {
	res, tier, err := c.Solve(req)
	return res.Schedule, tier, err
}

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("series %s not registered", name)
	return 0
}

// TestCacheHitReturnsSameSchedule: a repeated query must hit and return the
// identical schedule object, and the counters must advance accordingly.
func TestCacheHitReturnsSameSchedule(t *testing.T) {
	c, reg := testCache()
	s := diverseSet()

	first, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	if tier == TierCached {
		t.Fatalf("first resolve tier = %v, want a solve", tier)
	}
	second, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierCached {
		t.Fatalf("second resolve tier = %v, want cached", tier)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache returned a different schedule for the same state")
	}
	if hits := counterValue(t, reg, "remicss_schedule_cache_hits_total"); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if misses := counterValue(t, reg, "remicss_schedule_cache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

// TestCacheMatchesUncachedOptimize: on the quantization grid itself, the
// cached solve must agree with plain Solve.
func TestCacheMatchesUncachedOptimize(t *testing.T) {
	c := NewCache(CacheConfig{})
	// diverseSet snapped to the grid, so quantization is identity.
	s := quantizeSet(diverseSet())
	for _, obj := range []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay} {
		cached, _, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: obj, Limited: true})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: obj, Limited: true})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(cached.Risk(s, core.Correlation{}), plain.Risk(s, core.Correlation{}), 1e-9) ||
			!almostEqual(cached.Loss(s, core.Correlation{}), plain.Loss(s, core.Correlation{}), 1e-9) ||
			!almostEqual(cached.Delay(s), plain.Delay(s), 1e-9) {
			t.Fatalf("obj %v: cached schedule metrics diverge from Solve", obj)
		}
	}
}

// TestCacheQuantizationAliases: two states inside one grid cell must share
// a cache entry; states in different cells must not.
func TestCacheQuantizationAliases(t *testing.T) {
	c, reg := testCache()
	s := diverseSet()
	if _, _, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	}

	nudged := append(core.Set(nil), s...)
	nudged[0].Risk += 0.001 // default RiskStep is 0.01: same cell
	if _, tier, err := cacheSchedule(c, Request{Set: nudged, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	} else if tier != TierCached {
		t.Fatalf("sub-grid perturbation tier = %v, want cached", tier)
	}

	moved := append(core.Set(nil), s...)
	moved[0].Risk += 0.1 // ten cells away
	if _, tier, err := cacheSchedule(c, Request{Set: moved, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	} else if tier == TierCached {
		t.Fatal("cross-cell perturbation hit the cache")
	}
	if misses := counterValue(t, reg, "remicss_schedule_cache_misses_total"); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

// TestCacheWarmTier: after the first cold solve, single-channel
// perturbations should re-solve warm (the LP constraint structure of the
// IV-B program is unchanged), advancing the warm-solve counters.
func TestCacheWarmTier(t *testing.T) {
	c, reg := testCache()
	s := diverseSet()
	if _, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	} else if tier != TierCold {
		t.Fatalf("first solve tier = %v, want cold", tier)
	}

	warm := 0
	for i := 1; i <= 8; i++ {
		moved := append(core.Set(nil), s...)
		moved[0].Risk = 0.30 + 0.05*float64(i) // new cell each step
		_, tier, err := cacheSchedule(c, Request{Set: moved, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true})
		if err != nil {
			t.Fatal(err)
		}
		if tier == TierWarm {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no perturbation re-solved warm")
	}
	if got := counterValue(t, reg, "lp_warm_solves_total"); got != int64(warm) {
		t.Fatalf("lp_warm_solves_total = %d, want %d", got, warm)
	}
	if counterValue(t, reg, "lp_warm_pivots_total") < 0 {
		t.Fatal("negative warm pivot count")
	}
}

// TestCacheDeterminismUnderRace: concurrent queries for states that
// quantize equally must all observe the identical schedule (run with -race;
// the read path is an atomic snapshot).
func TestCacheDeterminismUnderRace(t *testing.T) {
	c, _ := testCache()
	s := diverseSet()

	const goroutines = 8
	const iters = 200
	scheds := make([]core.Schedule, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				jittered := append(core.Set(nil), s...)
				for j := range jittered {
					// Jitter well inside the grid cell: same quantized state.
					jittered[j].Risk += (rng.Float64() - 0.5) * 0.004
				}
				sched, _, err := cacheSchedule(c, Request{Set: jittered, Kappa: 2, Mu: 3, Obj: ObjectiveLoss, Limited: true})
				if err != nil {
					t.Error(err)
					return
				}
				if scheds[g] == nil {
					scheds[g] = sched
				} else if !reflect.DeepEqual(scheds[g], sched) {
					t.Error("schedule changed across equal quantized states")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(scheds[0], scheds[g]) {
			t.Fatalf("goroutines observed different schedules for one quantized state")
		}
	}
}

// TestCacheHitAllocationFree pins the read path at zero allocations per
// hit — the //remicss:noalloc contract, enforced at runtime.
func TestCacheHitAllocationFree(t *testing.T) {
	c, _ := testCache()
	s := diverseSet()
	req := Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}
	if _, _, err := c.Solve(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, tier, err := c.Solve(req); err != nil || tier != TierCached {
			t.Fatal("lookup missed a cached state")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %v per run, want 0", allocs)
	}
}

// TestCacheEviction: filling the table past MaxEntries must evict the
// least-recently-used entries, keep the table bounded, and advance the
// eviction counter.
func TestCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(CacheConfig{MaxEntries: 8, Metrics: reg})
	s := diverseSet()

	for i := 0; i < 20; i++ {
		moved := append(core.Set(nil), s...)
		moved[1].Risk = 0.10 + 0.02*float64(i)
		if _, _, err := cacheSchedule(c, Request{Set: moved, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
			t.Fatal(err)
		}
		if c.Len() > 8 {
			t.Fatalf("table grew to %d entries, cap 8", c.Len())
		}
	}
	if ev := counterValue(t, reg, "remicss_schedule_cache_evictions_total"); ev == 0 {
		t.Fatal("no evictions recorded after overflowing the table")
	}

	// The most recent state must still be cached...
	recent := append(core.Set(nil), s...)
	recent[1].Risk = 0.10 + 0.02*19
	if _, tier, err := cacheSchedule(c, Request{Set: recent, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	} else if tier != TierCached {
		t.Fatalf("most recent state tier = %v, want cached", tier)
	}
	// ...and the oldest must have been evicted.
	if _, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	} else if tier == TierCached {
		t.Fatal("oldest state survived eviction in an 8-entry table after 20 inserts")
	}
}

// TestCacheMaxRateKeyedSeparately: the IV-B and IV-D programs must not
// alias each other in the table.
func TestCacheMaxRateKeyedSeparately(t *testing.T) {
	c, _ := testCache()
	s := diverseSet()
	ivb, _, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	maxrate, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, MaxRate: true})
	if err != nil {
		t.Fatal(err)
	}
	if tier == TierCached {
		t.Fatal("max-rate program hit the IV-B entry")
	}
	if reflect.DeepEqual(ivb, maxrate) {
		// Not strictly impossible, but with diverseSet the utilization
		// constraints change the optimum; equality means key aliasing.
		t.Fatal("IV-B and max-rate programs returned identical schedules")
	}
	if _, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, MaxRate: true}); err != nil {
		t.Fatal(err)
	} else if tier != TierCached {
		t.Fatalf("repeated max-rate tier = %v, want cached", tier)
	}
}

// TestCacheOptimizeLarge: programs beyond the mask range are served by the
// same cache — repeat states hit, the cached (schedule, members) pair
// matches the uncached Solve on the quantized set, and sub-grid drift
// aliases.
func TestCacheOptimizeLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomSet(rng, 120)
	c, reg := testCache()

	req := Request{Set: s, Kappa: 2.5, Mu: 3.5, Obj: ObjectiveRisk, Limited: true}
	res, tier, err := c.Solve(req)
	sched, members := res.Schedule, res.Members
	if err != nil {
		t.Fatal(err)
	}
	if tier == TierCached {
		t.Fatalf("first large solve tier = %v", tier)
	}
	if len(members) == 0 {
		t.Fatal("empty member compaction")
	}

	// Same quantized state via sub-grid jitter around the grid points
	// (random risks can sit near a cell boundary, so jitter the quantized
	// values, which are cell centers by construction): cached, identical
	// objects.
	jittered := quantizeSet(s)
	for j := range jittered {
		jittered[j].Risk += (rng.Float64() - 0.5) * 0.004
	}
	req.Set = jittered
	res2, tier, err := c.Solve(req)
	sched2, members2 := res2.Schedule, res2.Members
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierCached {
		t.Fatalf("repeat large solve tier = %v, want cached", tier)
	}
	if !reflect.DeepEqual(sched, sched2) || !reflect.DeepEqual(members, members2) {
		t.Fatal("cached large solve diverged from the first")
	}

	// Against the uncached path on the quantized set.
	req.Set = quantizeSet(s)
	plain, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, plain.Schedule) || !reflect.DeepEqual(members, plain.Members) {
		t.Fatal("cached large solve differs from Solve on the quantized set")
	}

	if hits := counterValue(t, reg, "remicss_schedule_cache_hits_total"); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestCacheTraceEvents: every resolve must emit a schedule-resolved trace
// event whose value is the solve tier.
func TestCacheTraceEvents(t *testing.T) {
	tr := obs.NewTrace(64)
	c := NewCache(CacheConfig{
		Trace: tr,
		Now:   func() time.Duration { return 42 * time.Millisecond },
	})
	s := diverseSet()
	if _, _, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil {
		t.Fatal(err)
	}
	events := tr.Snapshot(nil)
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	if events[0].Kind != obs.EventScheduleResolved || SolveTier(events[0].Value) != TierCold {
		t.Fatalf("first event = %v value %d, want schedule-resolved/cold", events[0].Kind, events[0].Value)
	}
	if SolveTier(events[1].Value) != TierCached {
		t.Fatalf("second event value = %d, want cached tier", events[1].Value)
	}
	if events[1].At != 42*time.Millisecond {
		t.Fatalf("event timestamp = %v, want the configured clock", events[1].At)
	}
}

// TestCacheMissAllocsIndependentOfFill: a miss publishes one table slot, so
// its allocations must not grow with the number of cached entries. The same
// misses run against a 64-entry and a 4096-entry cache, each filled with
// unrelated states to just below its bound, so no eviction runs.
func TestCacheMissAllocsIndependentOfFill(t *testing.T) {
	const runs = 10
	s := diverseSet()
	filler := Result{Schedule: core.Uniform(core.Assignment{K: 1, Mask: 1})}
	missAllocs := func(maxEntries int) float64 {
		c := NewCache(CacheConfig{MaxEntries: maxEntries})
		c.mu.Lock()
		for i := 0; i < maxEntries-runs-1; i++ {
			q := Request{Set: quantizeSet(s), Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}
			q.Set[4].Rate = float64(1000 + 10*i) // a cell no query below reaches
			c.insert(&q, filler)
		}
		c.mu.Unlock()
		i := 0
		return testing.AllocsPerRun(runs, func() {
			q := append(core.Set(nil), s...)
			q[0].Risk = 0.40 + 0.02*float64(i)
			i++
			if _, tier, err := cacheSchedule(c, Request{Set: q, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true}); err != nil || tier == TierCached {
				t.Fatalf("query %d: tier %v, err %v; want a miss", i, tier, err)
			}
		})
	}
	small, large := missAllocs(64), missAllocs(4096)
	if small != large {
		t.Fatalf("a miss allocates %v times at 64 entries but %v at 4096", small, large)
	}
}

// TestCacheHitsDuringEvictionRace: lock-free hits race inserts and quartile
// evictions in an 8-entry cache. Every hit must return a schedule that a
// solve produced for exactly the state queried. Run with -race.
func TestCacheHitsDuringEvictionRace(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(CacheConfig{MaxEntries: 8, Metrics: reg})
	s := diverseSet()
	const states, goroutines, iters = 24, 4, 300
	type result struct {
		state int
		sched core.Schedule
		tier  SolveTier
	}
	results := make([][]result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				j := rng.Intn(states)
				if rng.Intn(2) == 0 {
					j %= 4 // a hot subset, so hits and evictions interleave
				}
				q := append(core.Set(nil), s...)
				q[0].Risk = 0.05 + 0.02*float64(j)
				sched, tier, err := cacheSchedule(c, Request{Set: q, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Limited: true})
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], result{j, sched, tier})
			}
		}(g)
	}
	wg.Wait()

	solved := make([][]core.Schedule, states)
	for _, rs := range results {
		for _, r := range rs {
			if r.tier != TierCached {
				solved[r.state] = append(solved[r.state], r.sched)
			}
		}
	}
	hits := 0
	for _, rs := range results {
		for _, r := range rs {
			if r.tier != TierCached {
				continue
			}
			hits++
			if !slices.ContainsFunc(solved[r.state], func(p core.Schedule) bool { return reflect.DeepEqual(p, r.sched) }) {
				t.Fatalf("a hit for state %d returned a schedule no solve of that state produced", r.state)
			}
		}
	}
	if hits == 0 || counterValue(t, reg, "remicss_schedule_cache_evictions_total") == 0 {
		t.Fatalf("hits = %d, evictions = %d: the race did not exercise both", hits,
			counterValue(t, reg, "remicss_schedule_cache_evictions_total"))
	}
}

// TestCacheCountsPinned: a fixed request sequence, a random walk over 48
// states through a 16-entry cache, must give exactly the hit, miss and
// eviction counts the copy-on-write table this cache replaced gave.
func TestCacheCountsPinned(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(CacheConfig{MaxEntries: 16, Metrics: reg})
	s := diverseSet()
	rng := rand.New(rand.NewSource(12))
	state := 0
	for i := 0; i < 600; i++ {
		state = (state + rng.Intn(7) - 3 + 48) % 48
		q := append(core.Set(nil), s...)
		q[0].Risk = 0.05 + 0.02*float64(state%8)
		q[3].Loss = 0.01 + 0.01*float64(state/8)
		if _, _, err := cacheSchedule(c, Request{Set: q, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, MaxRate: true, Limited: true}); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int64{
		"remicss_schedule_cache_hits_total":      479,
		"remicss_schedule_cache_misses_total":    121,
		"remicss_schedule_cache_evictions_total": 105,
	} {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if c.Len() != 16 {
		t.Errorf("Len() = %d, want 16", c.Len())
	}
}

// TestCacheRetuneProbePattern drives one cache through an adaptive
// controller's probe pattern — MaxRate at κ = 1…5 with μ = max(μ₀, κ) —
// over drifted states of a 5-channel set. Every result must match an
// uncached Solve: its risk, loss and delay within 1e-9, and its κ shadow
// price within 1e-9 or, at a degenerate optimum where the shadow price is
// any subgradient of the optimal value, a valid subgradient. Every miss
// whose coefficients match the last program's must re-enter the retained
// factorization warm, unless the optimum is tied (then it solves cold so
// the schedule is the one a cold solve picks). The hit path stays
// allocation-free.
func TestCacheRetuneProbePattern(t *testing.T) {
	c := NewCache(CacheConfig{})
	base := core.Set{
		{Risk: 0.05, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 1000},
		{Risk: 0.10, Loss: 0.02, Delay: 20 * time.Millisecond, Rate: 800},
		{Risk: 0.15, Loss: 0.03, Delay: 30 * time.Millisecond, Rate: 600},
		{Risk: 0.20, Loss: 0.05, Delay: 40 * time.Millisecond, Rate: 400},
		{Risk: 0.30, Loss: 0.08, Delay: 50 * time.Millisecond, Rate: 200},
	}
	rng := rand.New(rand.NewSource(14))
	var memoWarm, memoTied, subgradients int
	var req Request
	for state := 0; state < 40; state++ {
		s := append(core.Set(nil), base...)
		for i := range s {
			s[i].Risk += 0.01 * float64(rng.Intn(9)-4)
			s[i].Loss += 0.01 * float64(rng.Intn(3))
			s[i].Delay += 5 * time.Millisecond * time.Duration(rng.Intn(3))
			s[i].Rate += 10 * float64(rng.Intn(11)-5)
		}
		s = quantizeSet(s)
		mu0 := []float64{1, 2.5, 3.5, 4.2}[state%4]
		for kappa := 1.0; kappa <= 5; kappa++ {
			req = Request{Set: s, Kappa: kappa, Mu: math.Max(mu0, kappa), Obj: ObjectiveRisk, MaxRate: true}
			q := req
			q.Set = quantizeSet(s)
			memo := c.miss != nil && c.miss.choices != nil && sameCoefficients(&c.miss.last, &q)
			got, tier, err := c.Solve(req)
			if err != nil {
				t.Fatalf("state %d κ=%v: %v", state, kappa, err)
			}
			want, err := Solve(req)
			if err != nil {
				t.Fatalf("state %d κ=%v: uncached: %v", state, kappa, err)
			}
			switch {
			case !memo || tier == TierCached:
			case tier == TierWarm:
				memoWarm++
			case alternativeMass(t, q) > 1e-6:
				memoTied++
			default:
				t.Errorf("state %d κ=%v: a miss matching the last program's coefficients solved %v with a unique optimum, want warm", state, kappa, tier)
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"risk", got.Schedule.Risk(s, core.Correlation{}), want.Schedule.Risk(s, core.Correlation{})},
				{"loss", got.Schedule.Loss(s, core.Correlation{}), want.Schedule.Loss(s, core.Correlation{})},
				{"delay", got.Schedule.Delay(s), want.Schedule.Delay(s)},
			} {
				if !almostEqual(m.got, m.want, 1e-9) {
					t.Errorf("state %d κ=%v (%v): cached %s %v, uncached %v", state, kappa, tier, m.name, m.got, m.want)
				}
			}
			if almostEqual(got.DKappa, want.DKappa, 1e-9) {
				continue
			}
			subgradients++
			v := want.Schedule.Risk(s, core.Correlation{})
			for _, step := range []float64{0.05, -0.05, 0.3, -0.3} {
				r := req
				r.Kappa += step
				at, err := Solve(r)
				if err != nil {
					continue // κ+step outside [1, μ]
				}
				if vs := at.Schedule.Risk(s, core.Correlation{}); vs < v+got.DKappa*step-1e-9 {
					t.Errorf("state %d κ=%v (%v): cached DKappa %v (uncached %v) is no subgradient: V(κ%+v) = %v < %v",
						state, kappa, tier, got.DKappa, want.DKappa, step, vs, v+got.DKappa*step)
				}
			}
		}
	}
	if memoWarm == 0 {
		t.Fatal("no miss re-entered the last program warm")
	}
	t.Logf("coefficient-matching misses: %d warm, %d tied and solved cold; %d κ shadow prices are another subgradient than the uncached one",
		memoWarm, memoTied, subgradients)
	allocs := testing.AllocsPerRun(100, func() {
		if _, tier, err := c.Solve(req); err != nil || tier != TierCached {
			t.Fatal("lookup missed a cached state")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %v per run, want 0", allocs)
	}
}

// TestCacheMemoAcrossObjectiveSwitches drives one cache through requests
// on one quantized 5-channel set and model whose objective, MaxRate flag
// and group cap switch now and then while κ and μ walk a grid, so that
// misses alternate between WarmSolve (a new objective re-runs phase 2 on
// the retained tableau) and Resolve (only B moved since). Every result
// must be as good as an uncached Solve's: the same error, or the same
// objective value within 1e-9 at the requested κ. It opens with risk →
// loss → loss at κ+1 on one state: the loss request leaves the retained
// tableau optimized for loss costs, and the Resolve after it must price
// with those, not with the risk costs of the last cold solve.
func TestCacheMemoAcrossObjectiveSwitches(t *testing.T) {
	s := quantizeSet(goldenSet(5))
	corr := quantizeCorr(goldenModel())
	reqs := []Request{
		{Set: s, Corr: corr, Kappa: 2, Mu: 3, Obj: ObjectiveRisk},
		{Set: s, Corr: corr, Kappa: 2, Mu: 3, Obj: ObjectiveLoss},
		{Set: s, Corr: corr, Kappa: 3, Mu: 3, Obj: ObjectiveLoss},
	}
	rng := rand.New(rand.NewSource(15))
	grid := []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 5}
	r := reqs[len(reqs)-1]
	for len(reqs) < 400 {
		if rng.Intn(6) == 0 {
			r.Obj = goldenObjectives[rng.Intn(len(goldenObjectives))]
		}
		if rng.Intn(15) == 0 {
			r.MaxRate = !r.MaxRate
		}
		if rng.Intn(15) == 0 {
			r.GroupExposureCap = []float64{0, 0.05, 0.2}[rng.Intn(3)]
		}
		r.Kappa = grid[rng.Intn(5)]
		r.Mu = math.Max(r.Kappa, grid[rng.Intn(len(grid))])
		reqs = append(reqs, r)
	}

	value := func(p core.Schedule, obj Objective) float64 {
		switch obj {
		case ObjectiveRisk:
			return p.Risk(s, corr)
		case ObjectiveLoss:
			return p.Loss(s, corr)
		}
		return p.Delay(s)
	}
	c := NewCache(CacheConfig{})
	var resolves, afterSwitch int
	var missObjs []Objective // the objective of every miss so far
	for i, req := range reqs {
		memo := c.miss != nil && c.miss.choices != nil && sameCoefficients(&c.miss.last, &req)
		got, tier, gerr := c.Solve(req)
		want, werr := Solve(req)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("request %d %+v: cached err %v, uncached err %v", i, req, gerr, werr)
		}
		if tier != TierCached {
			if memo {
				resolves++
				// The memo's program was solved right after one with
				// another objective: WarmSolve changed C on the tableau.
				if k := len(missObjs); k >= 2 && missObjs[k-2] != req.Obj {
					afterSwitch++
				}
			}
			missObjs = append(missObjs, req.Obj)
		}
		if gerr != nil {
			continue
		}
		if gv, wv := value(got.Schedule, req.Obj), value(want.Schedule, req.Obj); !almostEqual(gv, wv, 1e-9) {
			t.Fatalf("request %d %+v (%v): cached objective %v, uncached %v", i, req, tier, gv, wv)
		}
		if k := got.Schedule.Kappa(); !almostEqual(k, req.Kappa, 1e-9) {
			t.Fatalf("request %d %+v (%v): cached schedule has κ = %v", i, req, tier, k)
		}
	}
	if resolves < 20 || afterSwitch == 0 {
		t.Fatalf("%d misses re-entered by Resolve, %d of them after an objective switch; the sequence does not exercise the memo", resolves, afterSwitch)
	}
	t.Logf("%d misses re-entered by Resolve, %d right after an objective switch", resolves, afterSwitch)
}

// alternativeMass measures how far the optimum of req's program is from
// unique: the most mass any optimal schedule (objective within 1e-10 of
// the optimum) can put on choices outside the support of Solve's optimum.
// Another optimal vertex exists exactly when it is positive.
func alternativeMass(t *testing.T, req Request) float64 {
	t.Helper()
	prob, _, err := req.build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	// Maximize the off-support mass over A x = B, C·x + slack = optimum.
	n := len(prob.C)
	face := lp.Problem{C: make([]float64, n+1), B: append(append([]float64(nil), prob.B...), sol.Objective+1e-10)}
	for _, row := range prob.A {
		face.A = append(face.A, append(append([]float64(nil), row...), 0))
	}
	face.A = append(face.A, append(append([]float64(nil), prob.C...), 1))
	for j, x := range sol.X {
		if x <= probabilityFloor {
			face.C[j] = -1
		}
	}
	alt, err := lp.Solve(face)
	if err != nil {
		t.Fatal(err)
	}
	return -alt.Objective
}
