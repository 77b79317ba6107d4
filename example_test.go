package remicss_test

import (
	"fmt"
	"time"

	"remicss"
)

// The Diverse channel set from the paper's evaluation, in symbols/second
// for 1400-byte symbols.
func exampleSet() remicss.ChannelSet {
	return remicss.ChannelSet{
		{Risk: 0.30, Loss: 0.010, Delay: 2500 * time.Microsecond, Rate: 446},
		{Risk: 0.10, Loss: 0.005, Delay: 250 * time.Microsecond, Rate: 1786},
		{Risk: 0.20, Loss: 0.010, Delay: 12500 * time.Microsecond, Rate: 5357},
		{Risk: 0.25, Loss: 0.020, Delay: 5 * time.Millisecond, Rate: 5804},
		{Risk: 0.15, Loss: 0.030, Delay: 500 * time.Microsecond, Rate: 8929},
	}
}

func ExampleChannelSet_optimalRate() {
	set := exampleSet()
	// Theorem 4: the best achievable symbol rate at average multiplicity μ.
	for _, mu := range []float64{1, 2.5, 5} {
		rc, err := set.OptimalRate(mu)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("μ=%.1f: %.0f symbols/s\n", mu, rc)
	}
	// Output:
	// μ=1.0: 22322 symbols/s
	// μ=2.5: 8929 symbols/s
	// μ=5.0: 446 symbols/s
}

func ExampleChannelSet_extremes() {
	set := exampleSet()
	fmt.Printf("best privacy:  Z_C = %.6f\n", set.MaxPrivacyRisk())
	fmt.Printf("best loss:     L_C = %.1e\n", set.MinLoss())
	fmt.Printf("full utilization needs μ <= %.4f\n", set.FullUtilizationMaxMu())
	// Output:
	// best privacy:  Z_C = 0.000225
	// best loss:     L_C = 3.0e-10
	// full utilization needs μ <= 2.4999
}

func ExampleSolveSchedule() {
	set := exampleSet()
	// The Section IV-D program: minimize risk at κ=2, μ=3 while
	// guaranteeing the schedule can transmit at the optimal rate.
	res, err := remicss.SolveSchedule(remicss.ScheduleRequest{
		Set: set, Kappa: 2, Mu: 3, Obj: remicss.ObjectiveRisk, MaxRate: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	sched := res.Schedule
	fmt.Printf("κ=%.1f μ=%.1f risk=%.4f\n", sched.Kappa(), sched.Mu(), sched.Risk(set, remicss.Correlation{}))
	// Output:
	// κ=2.0 μ=3.0 risk=0.0938
}

func ExampleSplit() {
	shares, err := remicss.Split([]byte("the secret"), 2, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Any two shares reconstruct; one reveals nothing.
	secret, err := remicss.Combine(shares[1:], 2, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s\n", secret)
	// Output:
	// the secret
}

func ExampleParams_Profile() {
	prof, err := remicss.Params{Kappa: 2, Mu: 3}.Profile(exampleSet())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("rate %.0f sym/s, risk %.4f, loss %.4f\n", prof.Rate, prof.Risk, prof.Loss)
	// Output:
	// rate 6696 sym/s, risk 0.0938, loss 0.0010
}
