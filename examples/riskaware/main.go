// Risk-aware parameter selection: estimate each channel's eavesdropping
// risk from simulated IDS observations with the HMM filter (the paper's
// reference risk-assessment technique), then choose the cheapest κ whose
// optimal schedule meets a confidentiality target — closing the loop from
// raw network evidence to protocol parameters.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"remicss"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	model := remicss.DefaultRiskModel()

	// Simulate a week of observations per channel. Channel 3 will exhibit
	// the compromised state's noisy alert pattern more often.
	const steps = 500
	obs := make([][]int, 5)
	labels := []string{"fiber ISP", "LTE", "satellite", "coffee-shop wifi", "campus net"}
	for i := range obs {
		_, o, err := model.Simulate(steps, rng)
		if err != nil {
			log.Fatal(err)
		}
		obs[i] = o
	}
	// Inject a burst of alerts on the wifi channel: its posterior risk must
	// rise regardless of what the simulation drew.
	for t := steps - 30; t < steps; t++ {
		obs[3][t] = 2
	}

	zs, err := remicss.EstimateRisks(model, obs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("estimated per-channel eavesdropping risk (HMM posterior):")
	for i, z := range zs {
		fmt.Printf("  %-18s z = %.4f\n", labels[i], z)
	}

	// Build the channel set with the estimated risks and measured
	// performance characteristics.
	rates := []float64{2000, 800, 300, 1500, 2500}
	losses := []float64{0.001, 0.01, 0.02, 0.03, 0.005}
	delays := []time.Duration{
		3 * time.Millisecond, 30 * time.Millisecond, 250 * time.Millisecond,
		8 * time.Millisecond, 2 * time.Millisecond,
	}
	set := make(remicss.ChannelSet, 5)
	for i := range set {
		set[i] = remicss.Channel{Risk: zs[i], Loss: losses[i], Delay: delays[i], Rate: rates[i]}
	}
	if err := set.Validate(); err != nil {
		log.Fatal(err)
	}

	// Policy: the chance an adversary reads any given symbol must be below
	// 1%. Find the cheapest κ (best rate comes from small μ; fix μ = κ+1
	// for one share of loss headroom) that meets it.
	const maxRisk = 0.01
	fmt.Printf("\nconfidentiality target: Z(p) < %.2f%%\n", maxRisk*100)
	for kappa := 1.0; kappa <= 4; kappa++ {
		mu := kappa + 1
		res, err := remicss.SolveSchedule(remicss.ScheduleRequest{
			Set: set, Kappa: kappa, Mu: mu, Obj: remicss.ObjectiveRisk, MaxRate: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		sched := res.Schedule
		risk := sched.Risk(set, remicss.Correlation{})
		rate, err := set.OptimalRate(mu)
		if err != nil {
			log.Fatal(err)
		}
		ok := "rejected"
		if risk < maxRisk {
			ok = "MEETS TARGET"
		}
		fmt.Printf("  κ=%.0f μ=%.0f: risk %.5f, rate %6.0f sym/s  -> %s\n", kappa, mu, risk, rate, ok)
		if risk < maxRisk {
			fmt.Println("\nchosen schedule:")
			for _, a := range sched.Support() {
				fmt.Printf("  p%v = %.4f\n", a, sched[a])
			}
			fmt.Printf("loss with this schedule: %.6f; delay %.1fms\n",
				sched.Loss(set, remicss.Correlation{}), sched.Delay(set)*1e3)
			return
		}
	}
	fmt.Println("no κ <= 4 meets the target; consider more channels or lower-risk paths")
}
