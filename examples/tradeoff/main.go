// Tradeoff explorer: sweep the protocol parameters κ and μ over the paper's
// Diverse channel setup and print the full privacy/performance frontier —
// the quantitative answer to "how much privacy does this configuration buy,
// and what does it cost?"
package main

import (
	"fmt"
	"log"
	"time"

	"remicss"
)

func main() {
	// The paper's Diverse setup (rates in symbols/s for 1400-byte symbols),
	// with risks and imperfections added so every column is interesting.
	set := remicss.ChannelSet{
		{Risk: 0.30, Loss: 0.010, Delay: 2500 * time.Microsecond, Rate: 446},
		{Risk: 0.10, Loss: 0.005, Delay: 250 * time.Microsecond, Rate: 1786},
		{Risk: 0.20, Loss: 0.010, Delay: 12500 * time.Microsecond, Rate: 5357},
		{Risk: 0.25, Loss: 0.020, Delay: 5 * time.Millisecond, Rate: 5804},
		{Risk: 0.15, Loss: 0.030, Delay: 500 * time.Microsecond, Rate: 8929},
	}
	if err := set.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("privacy/performance frontier at optimal rate (Diverse setup)")
	fmt.Println("κ-1 = share interceptions tolerated; μ-κ = share losses tolerated")
	fmt.Printf("\n%5s %5s | %12s %10s %10s %10s\n",
		"κ", "μ", "rate sym/s", "risk Z(p)", "loss L(p)", "delay")
	fmt.Println("-------------+---------------------------------------------")
	for kappa := 1.0; kappa <= 5; kappa++ {
		for mu := kappa; mu <= 5; mu++ {
			prof, err := (remicss.Params{Kappa: kappa, Mu: mu}).Profile(set)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%5.0f %5.0f | %12.0f %10.5f %10.6f %10v\n",
				kappa, mu, prof.Rate, prof.Risk, prof.Loss,
				prof.Delay.Round(10*time.Microsecond))
		}
	}

	// Fractional parameters interpolate the frontier: the continuum the
	// paper's share schedules unlock (Section III-C).
	fmt.Println("\nfractional parameters move along the continuum:")
	for _, mu := range []float64{2, 2.25, 2.5, 2.75, 3} {
		prof, err := (remicss.Params{Kappa: 2, Mu: mu}).Profile(set)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  κ=2.0 μ=%.2f: rate %6.0f sym/s, loss %.6f\n", mu, prof.Rate, prof.Loss)
	}

	// How much rate does full privacy cost? Compare extremes directly.
	fmt.Println("\nheadline tradeoff:")
	fmt.Printf("  throughput mode (κ=μ=1):   %8.0f sym/s, risk %.4f\n",
		set.MaxRate(), riskAt(set, 1, 1))
	fmt.Printf("  max privacy mode (κ=μ=5):  %8.0f sym/s, risk %.6f\n",
		mustRate(set, 5), set.MaxPrivacyRisk())
}

func riskAt(set remicss.ChannelSet, kappa, mu float64) float64 {
	res, err := remicss.SolveSchedule(remicss.ScheduleRequest{
		Set: set, Kappa: kappa, Mu: mu, Obj: remicss.ObjectiveRisk, MaxRate: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Schedule.Risk(set, remicss.Correlation{})
}

func mustRate(set remicss.ChannelSet, mu float64) float64 {
	rc, err := set.OptimalRate(mu)
	if err != nil {
		log.Fatal(err)
	}
	return rc
}
