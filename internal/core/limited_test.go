package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestTheorem5Construction checks the constructive proof: for any valid
// (κ, μ) the constructed schedule lies in M' and hits the averages exactly.
func TestTheorem5Construction(t *testing.T) {
	s := diverseSet()
	rng := rand.New(rand.NewSource(123))
	check := func(kappa, mu float64) {
		t.Helper()
		sched, err := s.ConstructLimitedSchedule(kappa, mu)
		if err != nil {
			t.Fatalf("(κ=%v, μ=%v): %v", kappa, mu, err)
		}
		if got := sched.Kappa(); !almostEqual(got, kappa, 1e-9) {
			t.Errorf("(κ=%v, μ=%v): kappa = %v", kappa, mu, got)
		}
		if got := sched.Mu(); !almostEqual(got, mu, 1e-9) {
			t.Errorf("(κ=%v, μ=%v): mu = %v", kappa, mu, got)
		}
		kMin := int(math.Floor(kappa))
		mMin := int(math.Floor(mu))
		for a, p := range sched {
			if p <= 0 {
				continue
			}
			if a.K < kMin {
				t.Errorf("(κ=%v, μ=%v): entry %v has k < ⌊κ⌋", kappa, mu, a)
			}
			if a.M() < mMin {
				t.Errorf("(κ=%v, μ=%v): entry %v has |M| < ⌊μ⌋", kappa, mu, a)
			}
			if a.K > a.M() {
				t.Errorf("(κ=%v, μ=%v): entry %v invalid", kappa, mu, a)
			}
		}
	}
	// Named cases covering the branch structure.
	cases := [][2]float64{
		{1, 1}, {5, 5}, {1, 5}, // integral corners
		{2, 3},      // integral interior
		{2.5, 3.5},  // distinct floors, both fractional
		{2.5, 2.75}, // same floor, both fractional (coupled branch)
		{2, 2.5},    // kappa integral, mu fractional, same floor
		{2.25, 3},   // kappa fractional, mu integral
		{4.9, 5},    // near the top
		{1, 1.01},   // near the bottom
	}
	for _, km := range cases {
		check(km[0], km[1])
	}
	// Random sweep.
	for trial := 0; trial < 200; trial++ {
		kappa := 1 + rng.Float64()*4
		mu := kappa + rng.Float64()*(5-kappa)
		check(kappa, mu)
	}
}

func TestConstructLimitedScheduleRejectsInvalid(t *testing.T) {
	s := diverseSet()
	for _, km := range [][2]float64{{0.5, 2}, {3, 2}, {1, 6}} {
		if _, err := s.ConstructLimitedSchedule(km[0], km[1]); err == nil {
			t.Errorf("(κ=%v, μ=%v) accepted", km[0], km[1])
		}
	}
}

// TestSubsetMonotonicity property-tests the subset formulas: risk and loss
// move monotonically in k, and delay is non-decreasing in k.
func TestSubsetMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5) + 2
		s := make(Set, n)
		for i := range s {
			s[i] = Channel{
				Risk:  rng.Float64(),
				Loss:  rng.Float64() * 0.5,
				Delay: time.Duration(rng.Intn(1000)) * time.Millisecond,
				Rate:  rng.Float64()*100 + 1,
			}
		}
		mask := s.FullMask()
		for k := 1; k < n; k++ {
			// Needing more shares makes interception harder: z decreasing.
			if z1, z2 := s.SubsetRisk(Correlation{}, k, maskIndices(mask)), s.SubsetRisk(Correlation{}, k+1, maskIndices(mask)); z2 > z1+1e-12 {
				t.Fatalf("risk not decreasing in k: z(%d)=%v < z(%d)=%v", k, z1, k+1, z2)
			}
			// Needing more shares makes loss easier: l increasing.
			if l1, l2 := s.SubsetLoss(Correlation{}, k, maskIndices(mask)), s.SubsetLoss(Correlation{}, k+1, maskIndices(mask)); l2 < l1-1e-12 {
				t.Fatalf("loss not increasing in k: l(%d)=%v > l(%d)=%v", k, l1, k+1, l2)
			}
			// Waiting for more shares cannot reduce delay.
			if d1, d2 := s.SubsetDelay(k, maskIndices(mask)), s.SubsetDelay(k+1, maskIndices(mask)); d2 < d1-1e-9 {
				t.Fatalf("delay not non-decreasing in k: d(%d)=%v > d(%d)=%v", k, d1, k+1, d2)
			}
		}
		// Adding a channel to M (k fixed) reduces loss and delay, raises
		// risk exposure only through more observable shares: risk with k
		// fixed is non-decreasing in M.
		if n >= 3 {
			sub := mask >> 1 // drop the top channel
			if z1, z2 := s.SubsetRisk(Correlation{}, 1, maskIndices(sub)), s.SubsetRisk(Correlation{}, 1, maskIndices(mask)); z2 < z1-1e-12 {
				t.Fatalf("risk not non-decreasing in M at k=1: %v > %v", z1, z2)
			}
			if l1, l2 := s.SubsetLoss(Correlation{}, 1, maskIndices(sub)), s.SubsetLoss(Correlation{}, 1, maskIndices(mask)); l2 > l1+1e-12 {
				t.Fatalf("loss not non-increasing in M at k=1: %v < %v", l1, l2)
			}
		}
	}
}
