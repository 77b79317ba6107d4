package bench

import (
	"math"
	mrand "math/rand"
	"testing"
	"time"

	"remicss/internal/core"
)

// TestModelProtocolCrossValidation is the strongest internal consistency
// check in the repository: for a grid of fixed (k, M) assignments, the
// closed-form subset formulas of internal/core must predict what the full
// protocol stack actually measures on emulated channels.
func TestModelProtocolCrossValidation(t *testing.T) {
	setup := Lossy() // diverse rates, per-channel loss 0.5%..3%
	set := setup.ChannelSet(DefaultPayloadBytes)
	all := core.Assignment{Mask: set.FullMask()}.Members()

	for k := 1; k <= 5; k++ {
		// Offer well below R_C for m=5 (the 5 Mbps channel binds) so
		// sender-side stalls and queueing do not contaminate the
		// measurement; what remains is pure channel behavior.
		res, err := Run(RunConfig{
			Setup:       setup,
			Kappa:       float64(k),
			Mu:          5,
			OfferedMbps: 3,
			Duration:    4 * time.Second,
			Seed:        int64(900 + k),
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}

		wantLoss := set.SubsetLoss(core.Correlation{}, k, all)
		if math.Abs(res.LossFraction-wantLoss) > 0.02 {
			t.Errorf("k=%d: measured loss %.4f, model %.4f", k, res.LossFraction, wantLoss)
		}
	}
}

// TestDelayedSetupDelayCrossValidation validates d(k, M) against measured
// delay on the Delayed setup at low load.
func TestDelayedSetupDelayCrossValidation(t *testing.T) {
	setup := Delayed()
	set := setup.ChannelSet(DefaultPayloadBytes)
	all := core.Assignment{Mask: set.FullMask()}.Members()

	for k := 1; k <= 5; k++ {
		res, err := Run(RunConfig{
			Setup:       setup,
			Kappa:       float64(k),
			Mu:          5,
			OfferedMbps: 3,
			Duration:    4 * time.Second,
			Seed:        int64(950 + k),
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := set.SubsetDelay(k, all)
		got := res.MeanDelay.Seconds()
		// Serialization adds up to one packet time on the slowest channel
		// (~2.24ms at 446 pps); allow that plus slack.
		if got < want-1e-4 || got > want+0.004 {
			t.Errorf("k=%d: measured delay %.4fs, model %.4fs", k, got, want)
		}
	}
}

// TestScheduleRiskMonteCarlo validates Z(p) by simulating the adversary
// against the exact share placements an LP schedule produces.
func TestScheduleRiskMonteCarlo(t *testing.T) {
	set := core.Set{
		{Risk: 0.6, Rate: 100},
		{Risk: 0.3, Rate: 100},
		{Risk: 0.2, Rate: 100},
		{Risk: 0.4, Rate: 100},
	}
	sched := core.Schedule{
		{K: 1, Mask: 0b0110}: 0.3,
		{K: 2, Mask: 0b0111}: 0.4,
		{K: 3, Mask: 0b1111}: 0.3,
	}
	if err := sched.Validate(set.N()); err != nil {
		t.Fatal(err)
	}
	predicted := sched.Risk(set, core.Correlation{})

	rng := newDeterministicRand(31)
	const symbols = 300000
	leaks := 0
	// Inverse-transform sampling over the schedule's support.
	support := sched.Support()
	cum := make([]float64, len(support))
	total := 0.0
	for i, a := range support {
		total += sched[a]
		cum[i] = total
	}
	for s := 0; s < symbols; s++ {
		u := rng.Float64() * total
		var a core.Assignment
		for i := range support {
			if u <= cum[i] {
				a = support[i]
				break
			}
		}
		observed := 0
		for i := range set {
			if a.Mask&(1<<uint(i)) != 0 && rng.Float64() < set[i].Risk {
				observed++
			}
		}
		if observed >= a.K {
			leaks++
		}
	}
	empirical := float64(leaks) / symbols
	if math.Abs(empirical-predicted) > 0.005 {
		t.Errorf("Z(p): predicted %.5f, Monte Carlo %.5f", predicted, empirical)
	}
}

// newDeterministicRand centralizes RNG creation for the Monte Carlo checks.
func newDeterministicRand(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}
