package schedule

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
)

const eps = 1e-6

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func diverseSet() core.Set {
	rates := []float64{5, 20, 60, 65, 100}
	risks := []float64{0.30, 0.10, 0.20, 0.25, 0.15}
	losses := []float64{0.01, 0.005, 0.01, 0.02, 0.03}
	delays := []time.Duration{
		2500 * time.Microsecond,
		250 * time.Microsecond,
		12500 * time.Microsecond,
		5 * time.Millisecond,
		500 * time.Microsecond,
	}
	s := make(core.Set, len(rates))
	for i := range s {
		s[i] = core.Channel{Risk: risks[i], Loss: losses[i], Delay: delays[i], Rate: rates[i]}
	}
	return s
}

func TestOptimizeRespectsParams(t *testing.T) {
	s := diverseSet()
	for _, obj := range []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay} {
		for _, km := range [][2]float64{{1, 1}, {1, 5}, {2, 3.5}, {2.7, 4.1}, {5, 5}} {
			kappa, mu := km[0], km[1]
			p, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: obj})
			if err != nil {
				t.Fatalf("%v (κ=%v, μ=%v): %v", obj, kappa, mu, err)
			}
			if got := p.Kappa(); !almostEqual(got, kappa, eps) {
				t.Errorf("%v: kappa = %v, want %v", obj, got, kappa)
			}
			if got := p.Mu(); !almostEqual(got, mu, eps) {
				t.Errorf("%v: mu = %v, want %v", obj, got, mu)
			}
		}
	}
}

func TestOptimizeExtremesMatchClosedForms(t *testing.T) {
	s := diverseSet()
	// κ = μ = n: the only schedule is p(n, C) = 1, risk Π z_i.
	p, err := solveSchedule(Request{Set: s, Kappa: 5, Mu: 5, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Risk(s, core.Correlation{}); !almostEqual(got, s.MaxPrivacyRisk(), eps) {
		t.Errorf("risk at (5,5) = %v, want %v", got, s.MaxPrivacyRisk())
	}
	// κ = 1, μ = n: loss optimum is Π l_i.
	p, err = solveSchedule(Request{Set: s, Kappa: 1, Mu: 5, Obj: ObjectiveLoss})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Loss(s, core.Correlation{}); !almostEqual(got, s.MinLoss(), eps) {
		t.Errorf("loss at (1,5) = %v, want %v", got, s.MinLoss())
	}
	// κ = 1, μ = n: delay optimum is the MinDelay closed form.
	p, err = solveSchedule(Request{Set: s, Kappa: 1, Mu: 5, Obj: ObjectiveDelay})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Delay(s); !almostEqual(got, s.MinDelay(), eps) {
		t.Errorf("delay at (1,5) = %v, want %v", got, s.MinDelay())
	}
}

// TestOptimizeBeatsOrMatchesNaive checks LP optimality against every
// two-point mixture with the same κ and μ.
func TestOptimizeBeatsOrMatchesNaive(t *testing.T) {
	s := diverseSet()
	kappa, mu := 2.0, 3.0
	p, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	best := p.Risk(s, core.Correlation{})
	all := core.EnumerateAssignments(s.N())
	for _, a := range all {
		for _, b := range all {
			// Mixture weight w solving w·k_a + (1-w)·k_b = κ and same for μ.
			den := float64(a.K - b.K)
			if den == 0 {
				continue
			}
			w := (kappa - float64(b.K)) / den
			if w < 0 || w > 1 {
				continue
			}
			gotMu := w*float64(a.M()) + (1-w)*float64(b.M())
			if !almostEqual(gotMu, mu, 1e-9) {
				continue
			}
			mix := core.Schedule{}
			mix[a] += w
			mix[b] += 1 - w
			if r := mix.Risk(s, core.Correlation{}); r < best-1e-7 {
				t.Fatalf("mixture %v/%v has risk %v < LP optimum %v", a, b, r, best)
			}
		}
	}
}

func TestOptimizeInfeasibleParams(t *testing.T) {
	s := diverseSet()
	if _, err := solveSchedule(Request{Set: s, Kappa: 0.5, Mu: 3, Obj: ObjectiveRisk}); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("kappa<1: got %v", err)
	}
	if _, err := solveSchedule(Request{Set: s, Kappa: 3, Mu: 2, Obj: ObjectiveRisk}); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("mu<kappa: got %v", err)
	}
	if _, err := solveSchedule(Request{Set: s, Kappa: 1, Mu: 6, Obj: ObjectiveRisk}); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("mu>n: got %v", err)
	}
}

func TestOptimizeLimitedScheduleFloors(t *testing.T) {
	s := diverseSet()
	kappa, mu := 2.4, 3.6
	p, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk, Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	for a := range p {
		if p[a] <= 0 {
			continue
		}
		if a.K < 2 {
			t.Errorf("limited schedule uses k=%d < ⌊κ⌋=2", a.K)
		}
		if a.M() < 3 {
			t.Errorf("limited schedule uses |M|=%d < ⌊μ⌋=3", a.M())
		}
	}
	if got := p.Kappa(); !almostEqual(got, kappa, eps) {
		t.Errorf("limited kappa = %v, want %v", got, kappa)
	}
	if got := p.Mu(); !almostEqual(got, mu, eps) {
		t.Errorf("limited mu = %v, want %v", got, mu)
	}
}

// TestTheorem5LimitedAlwaysFeasible: any valid (κ, μ) has a limited
// schedule.
func TestTheorem5LimitedAlwaysFeasible(t *testing.T) {
	s := diverseSet()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		kappa := 1 + rng.Float64()*4
		mu := kappa + rng.Float64()*(5-kappa)
		if _, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk, Limited: true}); err != nil {
			t.Fatalf("limited (κ=%v, μ=%v): %v", kappa, mu, err)
		}
	}
}

// TestSectionIVELimitedDelayGap reproduces the paper's counterexample: the
// limited optimum can be strictly worse. d = (2, 9, 10), κ=2, μ=3:
// limited delay 9 vs unlimited 6.
func TestSectionIVELimitedDelayGap(t *testing.T) {
	s := core.Set{
		{Delay: 2 * time.Second, Rate: 1},
		{Delay: 9 * time.Second, Rate: 1},
		{Delay: 10 * time.Second, Rate: 1},
	}
	limited, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveDelay, Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := limited.Delay(s); !almostEqual(got, 9, eps) {
		t.Errorf("limited delay = %v, want 9", got)
	}
	unlimited, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveDelay})
	if err != nil {
		t.Fatal(err)
	}
	if got := unlimited.Delay(s); !almostEqual(got, 6, eps) {
		t.Errorf("unlimited delay = %v, want 6", got)
	}
}

func TestOptimizeAtMaxRateUtilization(t *testing.T) {
	s := diverseSet()
	for _, km := range [][2]float64{{1, 1.5}, {2, 2.5}, {2, 3.4}, {3, 4.2}, {1, 5}} {
		kappa, mu := km[0], km[1]
		p, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveLoss, MaxRate: true})
		if err != nil {
			t.Fatalf("(κ=%v, μ=%v): %v", kappa, mu, err)
		}
		if got := p.Kappa(); !almostEqual(got, kappa, eps) {
			t.Errorf("kappa = %v, want %v", got, kappa)
		}
		if got := p.Mu(); !almostEqual(got, mu, eps) {
			t.Errorf("mu = %v, want %v (implied by utilization)", got, mu)
		}
		targets, err := s.UtilizationTargets(mu)
		if err != nil {
			t.Fatal(err)
		}
		usage := p.ChannelUsage(s.N())
		for i := range targets {
			if !almostEqual(usage[i], targets[i], eps) {
				t.Errorf("(κ=%v, μ=%v) channel %d usage = %v, want %v",
					kappa, mu, i, usage[i], targets[i])
			}
		}
	}
}

func TestOptimizeAtMaxRateNoWorseThanUniform(t *testing.T) {
	// The max-rate optimum is at least as good as any single assignment that
	// happens to meet the utilization constraints (rarely possible), and
	// must be no better than the unconstrained optimum.
	s := diverseSet()
	kappa, mu := 2.0, 3.0
	constrained, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk, MaxRate: true})
	if err != nil {
		t.Fatal(err)
	}
	free, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Risk(s, core.Correlation{}) < free.Risk(s, core.Correlation{})-eps {
		t.Errorf("constrained optimum %v better than unconstrained %v",
			constrained.Risk(s, core.Correlation{}), free.Risk(s, core.Correlation{}))
	}
}

func TestSamplerMatchesDistribution(t *testing.T) {
	s := diverseSet()
	p, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3.5, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := NewSampler(p, s.N(), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	counts := make(map[core.Assignment]int)
	var kSum, mSum float64
	for i := 0; i < draws; i++ {
		a := sampler.Next()
		counts[a]++
		kSum += float64(a.K)
		mSum += float64(a.M())
	}
	if got := kSum / draws; !almostEqual(got, 2, 0.02) {
		t.Errorf("empirical kappa = %v, want 2", got)
	}
	if got := mSum / draws; !almostEqual(got, 3.5, 0.02) {
		t.Errorf("empirical mu = %v, want 3.5", got)
	}
	for a, c := range counts {
		want := p[a]
		got := float64(c) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("assignment %v frequency %v, want %v", a, got, want)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(core.Schedule{}, 3, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty schedule accepted")
	}
	valid := core.Uniform(core.Assignment{K: 1, Mask: 1})
	if _, err := NewSampler(valid, 3, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestPackFigure2(t *testing.T) {
	// The paper's Figure 2: rates (3, 4, 8).
	slots := []int{3, 4, 8}
	// μ=1: all 15 slots carry distinct symbols.
	packing, err := Pack(slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(packing) != 15 {
		t.Errorf("μ=1: packed %d symbols, want 15", len(packing))
	}
	// μ=2: R_C = min(15/2, 7/1) = 7.
	packing, err = Pack(slots, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(packing) != 7 {
		t.Errorf("μ=2: packed %d symbols, want 7", len(packing))
	}
	// μ=3: R_C = min(15/3, 7/2, 3/1) = 3.
	packing, err = Pack(slots, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(packing) != 3 {
		t.Errorf("μ=3: packed %d symbols, want 3", len(packing))
	}
}

func TestPackMatchesTheorem4(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(5) + 1
		slots := make([]int, n)
		s := make(core.Set, n)
		for i := range slots {
			slots[i] = rng.Intn(40) + 1
			s[i] = core.Channel{Rate: float64(slots[i])}
		}
		m := rng.Intn(n) + 1
		packing, err := Pack(slots, m)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := s.OptimalRate(float64(m))
		if err != nil {
			t.Fatal(err)
		}
		if want := int(math.Floor(rc + 1e-9)); len(packing) != want {
			t.Fatalf("n=%d m=%d slots=%v: packed %d, optimal %d",
				n, m, slots, len(packing), want)
		}
	}
}

func TestPackRespectsBudgetsAndMultiplicity(t *testing.T) {
	slots := []int{3, 4, 8}
	packing, err := Pack(slots, 2)
	if err != nil {
		t.Fatal(err)
	}
	usage := PackUsage(packing, len(slots))
	for i, u := range usage {
		if u > slots[i] {
			t.Errorf("channel %d used %d times, budget %d", i, u, slots[i])
		}
	}
	for _, mask := range packing {
		count := 0
		for i := 0; i < len(slots); i++ {
			if mask&(1<<uint(i)) != 0 {
				count++
			}
		}
		if count != 2 {
			t.Errorf("packing entry %b has %d channels, want 2", mask, count)
		}
	}
}

func TestPackValidation(t *testing.T) {
	if _, err := Pack([]int{1, 2}, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Pack([]int{1, 2}, 3); err == nil {
		t.Error("m>n accepted")
	}
	if _, err := Pack([]int{-1, 2}, 1); err == nil {
		t.Error("negative slots accepted")
	}
}

func TestObjectiveString(t *testing.T) {
	cases := map[Objective]string{
		ObjectiveRisk:  "risk",
		ObjectiveLoss:  "loss",
		ObjectiveDelay: "delay",
		Objective(42):  "objective(42)",
	}
	for obj, want := range cases {
		if got := obj.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(obj), got, want)
		}
	}
}

func BenchmarkSolveRisk(b *testing.B) {
	s := diverseSet()
	for i := 0; i < b.N; i++ {
		if _, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3.5, Obj: ObjectiveRisk}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveAtMaxRate(b *testing.B) {
	s := diverseSet()
	for i := 0; i < b.N; i++ {
		if _, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3.5, Obj: ObjectiveLoss, MaxRate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampler(b *testing.B) {
	s := diverseSet()
	p, err := solveSchedule(Request{Set: s, Kappa: 2, Mu: 3.5, Obj: ObjectiveRisk})
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := NewSampler(p, s.N(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.Next()
	}
}

// TestSensitivityIsSubgradient validates the shadow prices of the κ and μ
// constraints. The optimal value V(κ, μ) of a minimization LP is convex and
// piecewise linear in the right-hand side, and at degenerate optima the
// dual is a subgradient rather than a two-sided derivative, so the correct
// check is the subgradient inequality V(b') >= V(b) + y·(b'-b).
func TestSensitivityIsSubgradient(t *testing.T) {
	s := diverseSet()
	kappa, mu := 2.0, 3.0

	res, err := Solve(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk})
	if err != nil {
		t.Fatal(err)
	}
	dK, dM := res.DKappa, res.DMu
	at := func(k, m float64) float64 {
		p, err := solveSchedule(Request{Set: s, Kappa: k, Mu: m, Obj: ObjectiveRisk})
		if err != nil {
			t.Fatal(err)
		}
		return p.Risk(s, core.Correlation{})
	}
	base := at(kappa, mu)
	for _, step := range []float64{0.05, -0.05, 0.2, -0.2} {
		if got, bound := at(kappa+step, mu), base+dK*step; got < bound-1e-6 {
			t.Errorf("V(κ%+v) = %v violates subgradient bound %v (dK=%v)", step, got, bound, dK)
		}
		if got, bound := at(kappa, mu+step), base+dM*step; got < bound-1e-6 {
			t.Errorf("V(μ%+v) = %v violates subgradient bound %v (dM=%v)", step, got, bound, dM)
		}
	}
	// For the risk objective, raising the threshold must not increase risk.
	if dK > 1e-9 {
		t.Errorf("dRisk/dκ = %v, want <= 0 (more threshold, less risk)", dK)
	}
}

// TestSensitivityLossObjective sanity-checks the loss tradeoff directions.
func TestSensitivityLossObjective(t *testing.T) {
	s := diverseSet()
	res, err := Solve(Request{Set: s, Kappa: 2, Mu: 3, Obj: ObjectiveLoss})
	if err != nil {
		t.Fatal(err)
	}
	dK, dM := res.DKappa, res.DMu
	// Needing more shares (higher κ) makes loss worse; more redundancy
	// (higher μ) makes it better.
	if dK < -1e-9 {
		t.Errorf("dLoss/dκ = %v, want >= 0", dK)
	}
	if dM > 1e-9 {
		t.Errorf("dLoss/dμ = %v, want <= 0", dM)
	}
}
