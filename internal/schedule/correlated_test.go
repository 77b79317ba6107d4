package schedule

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"remicss/internal/core"
)

func corrTestSet() core.Set {
	return core.Set{
		{Risk: 0.05, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.05, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.30, Loss: 0.02, Delay: 50 * time.Millisecond, Rate: 800},
		{Risk: 0.30, Loss: 0.05, Delay: 80 * time.Millisecond, Rate: 500},
	}
}

// An all-zero correlation model must produce the identical schedule: the
// program's coefficients are bit-equal, so the simplex walks the same path.
func TestOptimizeZeroCorrelationIdentical(t *testing.T) {
	s := corrTestSet()
	zero := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011}}}
	for _, obj := range []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay} {
		plain, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: obj})
		if err != nil {
			t.Fatalf("%v plain: %v", obj, err)
		}
		corr, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: obj, Corr: zero})
		if err != nil {
			t.Fatalf("%v correlated: %v", obj, err)
		}
		if len(plain) != len(corr) {
			t.Fatalf("%v: support sizes differ: %d vs %d", obj, len(plain), len(corr))
		}
		for a, p := range plain {
			if corr[a] != p {
				t.Errorf("%v: p(%d,%b) = %v under zero model, %v independent", obj, a.K, a.Mask, corr[a], p)
			}
		}
	}
}

// A correlated risk objective shifts mass compared to the independent one
// when two cheap channels share a conduit: the model sees through the
// apparent diversity.
func TestOptimizeCorrelationChangesRisk(t *testing.T) {
	s := corrTestSet()
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.9}}}
	plain, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	got, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk, Corr: corr})
	if err != nil {
		t.Fatal(err)
	}
	// The correlated schedule must beat the independent-optimal schedule
	// under the correlated measure (it optimizes that measure directly).
	if gz, pz := got.Risk(s, corr), plain.Risk(s, corr); gz > pz+1e-9 {
		t.Fatalf("correlated solve %v worse than independent schedule %v under correlated risk", gz, pz)
	}
}

// The per-group exposure rows must bind: capping a group's attributable
// exposure below the unconstrained optimum's level forces a feasible
// schedule that respects the cap, at a no-better objective.
func TestGroupExposureCapRespected(t *testing.T) {
	s := corrTestSet()
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.9}}}

	free, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk, Corr: corr})
	if err != nil {
		t.Fatal(err)
	}
	e0 := free.GroupExposure(s, corr, 0)
	if e0 <= 0 {
		t.Fatalf("unconstrained optimum has zero group exposure (%v); test setup broken", e0)
	}

	cap := e0 / 2
	capped, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk, Corr: corr, GroupExposureCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	if e := capped.GroupExposure(s, corr, 0); e > cap+1e-9 {
		t.Fatalf("capped schedule group exposure %v above cap %v", e, cap)
	}
	if zc, zf := capped.Risk(s, corr), free.Risk(s, corr); zc < zf-1e-9 {
		t.Fatalf("capped objective %v better than unconstrained %v", zc, zf)
	}
	// Parameter constraints still hold alongside the new rows.
	if k := free.Kappa(); math.Abs(capped.Kappa()-2) > 1e-6 || math.Abs(k-2) > 1e-6 {
		t.Fatalf("kappa drifted: capped %v free %v", capped.Kappa(), k)
	}
	if math.Abs(capped.Mu()-2.5) > 1e-6 {
		t.Fatalf("mu drifted: %v", capped.Mu())
	}
}

// The Section IV-E floor k >= ⌊κ⌋ (Theorem 5) must survive the correlated
// program: every support assignment keeps the limited-threat guarantee.
func TestCorrelatedLimitedKeepsThresholdFloor(t *testing.T) {
	s := corrTestSet()
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.9}}}
	free, err := solveSchedule(Request{Set: s, Kappa: 2.5, Mu: 3, Obj: ObjectiveRisk, Limited: true, Corr: corr})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := solveSchedule(Request{Set: s, Kappa: 2.5, Mu: 3, Obj: ObjectiveRisk, Limited: true, Corr: corr, GroupExposureCap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []core.Schedule{free, capped} {
		for a := range sched {
			if a.K < 2 {
				t.Fatalf("assignment k=%d below floor ⌊κ⌋=2", a.K)
			}
		}
	}
}

// The max-rate program accepts the same correlation options.
func TestMaxRateCorrelated(t *testing.T) {
	s := corrTestSet()
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.8}}}
	sched, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk, MaxRate: true, Corr: corr})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(s.N()); err != nil {
		t.Fatal(err)
	}
}

// An invalid model must be rejected before any solve.
func TestCorrelationValidatedInBuild(t *testing.T) {
	s := corrTestSet()
	bad := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011}, {Mask: 0b0110}}}
	if _, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, Corr: bad}); err == nil {
		t.Fatal("overlapping groups accepted")
	}
	if _, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk, MaxRate: true, Corr: bad}); err == nil {
		t.Fatal("overlapping groups accepted by max-rate")
	}
}

// Cache keying: an all-zero model shares entries with the uncorrelated
// path; materially different rhos split; drift within one rho grid cell
// stays a hit.
func TestCacheCorrelatedKeying(t *testing.T) {
	s := corrTestSet()
	c := NewCache(CacheConfig{})

	if _, tier, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk}); err != nil || tier == TierCached {
		t.Fatalf("first solve: tier %v err %v", tier, err)
	}
	zero := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011}}}
	if _, tier, err := cacheSchedule(c, Request{Set: s, Corr: zero, Kappa: 2, Mu: 3, Obj: ObjectiveRisk}); err != nil || tier != TierCached {
		t.Fatalf("zero model should share the uncorrelated entry: tier %v err %v", tier, err)
	}

	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.8}}}
	sched1, tier, err := cacheSchedule(c, Request{Set: s, Corr: corr, Kappa: 2, Mu: 3, Obj: ObjectiveRisk})
	if err != nil || tier == TierCached {
		t.Fatalf("new rho should miss: tier %v err %v", tier, err)
	}
	// 0.81 quantizes to the same 0.05-step cell as 0.80.
	drift := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.81}}}
	sched2, tier, err := cacheSchedule(c, Request{Set: s, Corr: drift, Kappa: 2, Mu: 3, Obj: ObjectiveRisk})
	if err != nil || tier != TierCached {
		t.Fatalf("in-cell rho drift should hit: tier %v err %v", tier, err)
	}
	if len(sched1) != len(sched2) {
		t.Fatalf("drift returned a different schedule")
	}
	// 0.6 is a different cell: miss again.
	far := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.6}}}
	if _, tier, err := cacheSchedule(c, Request{Set: s, Corr: far, Kappa: 2, Mu: 3, Obj: ObjectiveRisk}); err != nil || tier == TierCached {
		t.Fatalf("cross-cell rho should miss: tier %v err %v", tier, err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
}

// The cached correlated solve must equal the one-shot solve on the same
// quantized state (warm-start reuse must not change results).
func TestCacheCorrelatedMatchesOneShot(t *testing.T) {
	s := corrTestSet()
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.8, LossRho: 0.4}}}
	c := NewCache(CacheConfig{})
	// Prime the solver with an unrelated program so the correlated solve
	// exercises the warm path.
	if _, _, err := cacheSchedule(c, Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk}); err != nil {
		t.Fatal(err)
	}
	got, _, err := cacheSchedule(c, Request{Set: s, Corr: corr, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk, GroupExposureCap: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 2.5, Obj: ObjectiveRisk, Corr: corr, GroupExposureCap: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if gz, wz := got.Risk(s, corr), want.Risk(s, corr); math.Abs(gz-wz) > 1e-9 {
		t.Fatalf("cached correlated risk %v != one-shot %v", gz, wz)
	}
	if e := got.GroupExposure(s, corr, 0); e > 0.03+1e-9 {
		t.Fatalf("cached schedule violates group cap: %v", e)
	}
}

// Beyond the mask range the correlation model must still price the
// program, and the cache must key the model: a ρ=0.8 group over the four
// least risky channels of a 40-channel set changes the risk optimum.
func TestWideSolveHonorsCorrelation(t *testing.T) {
	s := quantizeSet(randomSet(rand.New(rand.NewSource(8)), 40)) // on the cache grid
	for i := 0; i < 4; i++ {
		s[i].Risk = 0.02
	}
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b1111, RiskRho: 0.8}}}
	req := Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveRisk}
	plain, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Corr = corr
	priced, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plain, priced) {
		t.Fatal("the correlation model left the 40-channel optimum unchanged")
	}

	c := NewCache(CacheConfig{})
	req.Corr = core.Correlation{}
	if res, tier, err := c.Solve(req); err != nil || tier == TierCached || !reflect.DeepEqual(res, plain) {
		t.Fatalf("independent request: tier %v err %v, or result differs from Solve", tier, err)
	}
	req.Corr = corr
	res, tier, err := c.Solve(req)
	if err != nil || tier == TierCached {
		t.Fatalf("correlated request hit the independent entry: tier %v err %v", tier, err)
	}
	// The warm start may land on another optimal vertex; the optimum
	// itself must agree.
	if got, want := compactedRisk(s, corr, res), compactedRisk(s, corr, priced); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cached correlated risk %v != Solve's %v", got, want)
	}
}

// compactedRisk evaluates a compacted result's risk over its member
// channels, with the model projected onto them.
func compactedRisk(s core.Set, corr core.Correlation, res Result) float64 {
	sub := make(core.Set, len(res.Members))
	for li, i := range res.Members {
		sub[li] = s[i]
	}
	return res.Schedule.Risk(sub, corr.Project(res.Members))
}
