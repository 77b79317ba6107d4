package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func randomWideSet(rng *rand.Rand, n int) Set {
	s := make(Set, n)
	for i := range s {
		s[i] = Channel{
			Risk:  rng.Float64(),
			Loss:  rng.Float64() * 0.4,
			Delay: time.Duration(1+rng.Intn(200)) * time.Millisecond,
			Rate:  1 + 99*rng.Float64(),
		}
	}
	return s
}

// TestMembersMetricsMatchMaskMetrics: the member-list kernel under the zero
// Correlation must agree exactly with the paper's mask formulas.
func TestMembersMetricsMatchMaskMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomWideSet(rng, 8)
	for mask := uint32(1); mask < 1<<8; mask++ {
		idx := maskIndices(mask)
		for k := 1; k <= len(idx); k++ {
			if got, want := s.SubsetRisk(Correlation{}, k, idx), maskRisk(s, k, mask); got != want {
				t.Fatalf("SubsetRisk(%d, %v) = %g, mask oracle %g", k, idx, got, want)
			}
			if got, want := s.SubsetLoss(Correlation{}, k, idx), maskLoss(s, k, mask); got != want {
				t.Fatalf("SubsetLoss(%d, %v) = %g, mask oracle %g", k, idx, got, want)
			}
			if got, want := s.SubsetDelay(k, idx), maskDelay(s, k, mask); got != want {
				t.Fatalf("SubsetDelay(%d, %v) = %g, mask oracle %g", k, idx, got, want)
			}
		}
	}
}

func TestChoiceValid(t *testing.T) {
	cases := []struct {
		a     Choice
		n     int
		valid bool
	}{
		{Choice{K: 1, Members: []int{0, 2, 4}}, 5, true},
		{Choice{K: 3, Members: []int{0, 2, 4}}, 5, true},
		{Choice{K: 4, Members: []int{0, 2, 4}}, 5, false}, // k > |M|
		{Choice{K: 1, Members: nil}, 5, false},            // empty
		{Choice{K: 1, Members: []int{2, 1}}, 5, false},    // not ascending
		{Choice{K: 1, Members: []int{1, 1}}, 5, false},    // duplicate
		{Choice{K: 1, Members: []int{0, 5}}, 5, false},    // out of range
	}
	for _, c := range cases {
		if got := c.a.Valid(c.n); got != c.valid {
			t.Errorf("%v.Valid(%d) = %v, want %v", c.a, c.n, got, c.valid)
		}
	}
}

// TestGenerateWideDeterministic: two runs with equal inputs must produce
// identical output (the cache and the differential tests depend on this).
func TestGenerateWideDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomWideSet(rng, 60)
	a := GenerateChoices(s, 2.4, 3.2, true)
	b := GenerateChoices(s, 2.4, 3.2, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generation is not deterministic for equal inputs")
	}
}

// TestGenerateWideCoversFeasibilityCorners: the generated (k, |M|) pairs
// must include every corner of the (κ, µ) cell so the LP hull contains the
// target parameters.
func TestGenerateWideCoversFeasibilityCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomWideSet(rng, 30)
	for _, tc := range []struct{ kappa, mu float64 }{
		{2.5, 2.7}, // same integer part
		{2.5, 4.3}, // different integer parts
		{2, 4},     // both integral
		{1, 1},     // degenerate corner
	} {
		for _, limited := range []bool{false, true} {
			got := map[[2]int]bool{}
			for _, a := range GenerateChoices(s, tc.kappa, tc.mu, limited) {
				if !a.Valid(s.N()) {
					t.Fatalf("invalid generated assignment %v", a)
				}
				got[[2]int{a.K, a.M()}] = true
			}
			for _, k := range []int{int(math.Floor(tc.kappa)), int(math.Ceil(tc.kappa))} {
				for _, m := range []int{int(math.Floor(tc.mu)), int(math.Ceil(tc.mu))} {
					if k > m {
						continue
					}
					if !got[[2]int{k, m}] {
						t.Errorf("kappa=%v mu=%v limited=%v: corner (k=%d, m=%d) missing",
							tc.kappa, tc.mu, limited, k, m)
					}
				}
			}
		}
	}
}

// TestGenerateWideRespectsLimited: limited mode must not emit k < ⌊κ⌋ or
// |M| < ⌊µ⌋.
func TestGenerateWideRespectsLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomWideSet(rng, 25)
	for _, a := range GenerateChoices(s, 2.6, 3.4, true) {
		if a.K < 2 || a.M() < 3 {
			t.Fatalf("limited generation emitted %v (want k >= 2, |M| >= 3)", a)
		}
	}
}

// TestGenerateWideGreedySubsetsSurvivePruning: the greedy-by-risk subset is
// the exact size-m risk minimizer, so pruning must never drop it — it can
// only be dominated by a subset that ties on risk, which the strict rule
// keeps.
func TestGenerateWideGreedySubsetsSurvivePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomWideSet(rng, 40)
	kappa, mu := 2.3, 3.1
	byRisk := s.bestBy(3, func(c Channel) float64 { return c.Risk })
	found := false
	for _, a := range GenerateChoices(s, kappa, mu, true) {
		if a.M() == 3 && reflect.DeepEqual(a.Members, byRisk) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("greedy-by-risk subset %v missing from generated candidates", byRisk)
	}
}

// TestGenerateWideLargeSetFast: generation for hundreds of channels must
// stay well under the 1 s budget the acceptance criteria set for the whole
// solve.
func TestGenerateWideLargeSetFast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomWideSet(rng, 200)
	start := time.Now()
	out := GenerateChoices(s, 2.5, 3.5, true)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("generation for n=200 took %v", elapsed)
	}
	if len(out) == 0 {
		t.Fatal("no assignments generated")
	}
	for _, a := range out {
		if !a.Valid(200) {
			t.Fatalf("invalid assignment %v", a)
		}
	}
}
