package remicss_test

import (
	"fmt"
	"time"

	"remicss"
)

// ExampleCorrelation prices a shared conduit into the privacy model: three
// channels with identical 10% eavesdropping risk, where channels 0 and 1
// ride the same fiber segment (correlation ρ = 0.8). Under the paper's
// independence assumption a k=2 split over all three channels looks safe;
// the correlated model shows the shared conduit triples the real exposure,
// because one tap on the common segment observes two shares at once.
func ExampleCorrelation() {
	set := remicss.ChannelSet{
		{Risk: 0.1, Loss: 0.01, Delay: 5 * time.Millisecond, Rate: 100},
		{Risk: 0.1, Loss: 0.01, Delay: 5 * time.Millisecond, Rate: 100},
		{Risk: 0.1, Loss: 0.01, Delay: 5 * time.Millisecond, Rate: 100},
	}
	corr := remicss.Correlation{Groups: []remicss.RiskGroup{
		{Mask: 0b011, RiskRho: 0.8, LossRho: 0.8},
	}}
	if err := corr.Validate(len(set)); err != nil {
		panic(err)
	}

	const k = 2
	all := []int{0, 1, 2}
	fmt.Printf("independent: %.4f\n", set.SubsetRisk(remicss.Correlation{}, k, all))
	fmt.Printf("correlated:  %.4f\n", set.SubsetRisk(corr, k, all))
	// The group's own contribution: a common-cause shock that hands the
	// adversary both member shares in one stroke.
	fmt.Printf("group share: %.4f\n", set.GroupExposure(corr, 0, k, all))
	// Output:
	// independent: 0.0280
	// correlated:  0.0843
	// group share: 0.0800
}

// ExampleNewLeakageMeter scores a symbol against the leakage-aware
// advantage bound: each observed share leaks λ = 1 bit of its 8-bit field,
// so the adversary's advantage ε strictly exceeds the plain exposure
// P(observed ≥ k), and a bound above the configured budget raises an
// alert.
func ExampleNewLeakageMeter() {
	cfg := remicss.LeakageConfig{PartialBits: 1, Budget: 0.03}
	meter := remicss.NewLeakageMeter(cfg, 3, nil, nil)

	// One symbol split k=2 over three channels, each observed with
	// probability 0.1.
	score := meter.RecordSymbol(0, 1, 2, []float64{0.1, 0.1, 0.1})
	fmt.Printf("exposure %.4f, advantage %.4f, alert %v\n",
		score.Exposure, score.Advantage, score.Alert)

	// The sender put three shares on channel 0's conduit.
	meter.RecordObserved(0, 3)

	st := meter.Snapshot()
	fmt.Printf("symbols %d, alerts %d, shares observed on ch0: %d\n",
		st.Symbols, st.Alerts, st.SharesObserved[0])
	// Output:
	// exposure 0.0280, advantage 0.0319, alert true
	// symbols 1, alerts 1, shares observed on ch0: 3
}
