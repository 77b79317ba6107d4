// Command remicss-opt is the optimality calculator: given a channel set, it
// prints the paper's extremal metrics, the achievable-rate curve of Theorem
// 4, and (for a chosen κ and μ) the LP-optimal share schedule.
//
// Channels are given as comma-separated risk:loss:delay:rate quadruples,
// with delay parsed as a Go duration and rate in symbols per second:
//
//	remicss-opt -channels "0.3:0.01:2.5ms:446,0.1:0.005:0.25ms:1786" \
//	    -kappa 1.5 -mu 2 -objective risk -maxrate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"remicss"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "remicss-opt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		channels  = flag.String("channels", "", "channel quadruples risk:loss:delay:rate, comma separated")
		edges     = flag.String("edges", "", "topology edges from>to:risk:loss:delay:rate, comma separated (alternative to -channels)")
		src       = flag.String("src", "", "sender node (with -edges)")
		dst       = flag.String("dst", "", "receiver node (with -edges)")
		kappa     = flag.Float64("kappa", 0, "average threshold κ (0 to skip schedule optimization)")
		mu        = flag.Float64("mu", 0, "average multiplicity μ")
		objective = flag.String("objective", "risk", "schedule objective: risk, loss, delay")
		maxRate   = flag.Bool("maxrate", false, "constrain the schedule to achieve the optimal rate (Section IV-D)")
		limited   = flag.Bool("limited", false, "restrict to limited schedules (Section IV-E, MICSS threat model)")
		muStep    = flag.Float64("mustep", 0.5, "step for the R_C(μ) table")
		file      = flag.String("file", "", "JSON file with a channel list (alternative to -channels/-edges)")
		jsonOut   = flag.Bool("json", false, "emit the optimized schedule as JSON instead of tables")
	)
	flag.Parse()
	var set remicss.ChannelSet
	var err error
	sources := 0
	for _, s := range []string{*channels, *edges, *file} {
		if s != "" {
			sources++
		}
	}
	switch {
	case sources > 1:
		return fmt.Errorf("-channels, -edges, and -file are mutually exclusive")
	case *channels != "":
		set, err = parseChannels(*channels)
	case *edges != "":
		set, err = channelsFromTopology(*edges, *src, *dst)
	case *file != "":
		set, err = channelsFromFile(*file)
	default:
		return fmt.Errorf("missing -channels, -edges, or -file (see -help)")
	}
	if err != nil {
		return err
	}
	if err := set.Validate(); err != nil {
		return err
	}
	if !*jsonOut {
		printOverview(set)
		printRateCurve(set, *muStep)
	}
	if *kappa > 0 {
		obj, err := parseObjective(*objective)
		if err != nil {
			return err
		}
		if *jsonOut {
			return printScheduleJSON(set, *kappa, *mu, obj, *maxRate, *limited)
		}
		return printSchedule(set, *kappa, *mu, obj, *maxRate, *limited)
	}
	return nil
}

// channelsFromFile reads a JSON channel list: [{"risk":..,"loss":..,
// "delay":"2.5ms","rate":..}, ...].
func channelsFromFile(path string) (remicss.ChannelSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set remicss.ChannelSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return set, nil
}

// printScheduleJSON emits {"schedule": [...], "kappa": .., "mu": ..,
// "risk": .., "loss": .., "delay_ms": .., "rate": ..} for machine
// consumption.
func printScheduleJSON(set remicss.ChannelSet, kappa, mu float64, obj remicss.Objective, maxRate, limited bool) error {
	res, err := remicss.SolveSchedule(remicss.ScheduleRequest{
		Set: set, Kappa: kappa, Mu: mu, Obj: obj, MaxRate: maxRate, Limited: limited,
	})
	if err != nil {
		return err
	}
	sched := res.Schedule
	rc, err := set.OptimalRate(mu)
	if err != nil {
		return err
	}
	out := struct {
		Schedule remicss.Schedule `json:"schedule"`
		Kappa    float64          `json:"kappa"`
		Mu       float64          `json:"mu"`
		Risk     float64          `json:"risk"`
		Loss     float64          `json:"loss"`
		DelayMs  float64          `json:"delay_ms"`
		Rate     float64          `json:"rate"`
	}{
		Schedule: sched,
		Kappa:    sched.Kappa(),
		Mu:       sched.Mu(),
		Risk:     sched.Risk(set, remicss.Correlation{}),
		Loss:     sched.Loss(set, remicss.Correlation{}),
		DelayMs:  sched.Delay(set) * 1e3,
		Rate:     rc,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func parseChannels(spec string) (remicss.ChannelSet, error) {
	var set remicss.ChannelSet
	for i, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("channel %d: want risk:loss:delay:rate, got %q", i, part)
		}
		z, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("channel %d risk: %w", i, err)
		}
		l, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("channel %d loss: %w", i, err)
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil {
			return nil, fmt.Errorf("channel %d delay: %w", i, err)
		}
		r, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("channel %d rate: %w", i, err)
		}
		set = append(set, remicss.Channel{Risk: z, Loss: l, Delay: d, Rate: r})
	}
	return set, nil
}

// channelsFromTopology parses edge specs, extracts edge-disjoint src→dst
// paths, and composes them into channels, printing the path structure.
func channelsFromTopology(spec, src, dst string) (remicss.ChannelSet, error) {
	if src == "" || dst == "" {
		return nil, fmt.Errorf("-edges requires -src and -dst")
	}
	var edges []remicss.NetworkEdge
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		arrow := strings.SplitN(part, ">", 2)
		if len(arrow) != 2 {
			return nil, fmt.Errorf("edge %d: want from>to:risk:loss:delay:rate, got %q", i, part)
		}
		rest := strings.SplitN(arrow[1], ":", 2)
		if len(rest) != 2 {
			return nil, fmt.Errorf("edge %d: missing properties in %q", i, part)
		}
		fields := strings.Split(rest[1], ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("edge %d: want 4 properties, got %d", i, len(fields))
		}
		z, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("edge %d risk: %w", i, err)
		}
		l, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("edge %d loss: %w", i, err)
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil {
			return nil, fmt.Errorf("edge %d delay: %w", i, err)
		}
		r, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("edge %d rate: %w", i, err)
		}
		edges = append(edges, remicss.NetworkEdge{
			From: arrow[0], To: rest[0], Risk: z, Loss: l, Delay: d, Rate: r,
		})
	}
	g, err := remicss.NewNetworkGraph(edges)
	if err != nil {
		return nil, err
	}
	set, paths, err := remicss.DisjointChannels(g, src, dst)
	if err != nil {
		return nil, err
	}
	fmt.Printf("derived %d edge-disjoint channels %s -> %s:\n", len(paths), src, dst)
	for i, p := range paths {
		fmt.Printf("  channel %d: %v\n", i, p.Nodes())
	}
	fmt.Println()
	return set, nil
}

func parseObjective(s string) (remicss.Objective, error) {
	switch s {
	case "risk":
		return remicss.ObjectiveRisk, nil
	case "loss":
		return remicss.ObjectiveLoss, nil
	case "delay":
		return remicss.ObjectiveDelay, nil
	default:
		return 0, fmt.Errorf("unknown objective %q", s)
	}
}

func printOverview(set remicss.ChannelSet) {
	fmt.Printf("channel set: n = %d, total rate = %.2f symbols/s\n", set.N(), set.TotalRate())
	fmt.Printf("  %-3s %8s %8s %12s %12s\n", "i", "risk", "loss", "delay", "rate")
	for i, c := range set {
		fmt.Printf("  %-3d %8.4f %8.4f %12v %12.2f\n", i, c.Risk, c.Loss, c.Delay, c.Rate)
	}
	fmt.Println("\nextremal values (κ, μ free):")
	fmt.Printf("  min risk  Z_C = %.6g   (κ = μ = n: adversary needs every channel)\n", set.MaxPrivacyRisk())
	fmt.Printf("  min loss  L_C = %.6g   (κ = 1, μ = n: any share suffices)\n", set.MinLoss())
	fmt.Printf("  min delay D_C = %.6gms (κ = 1, μ = n: fastest surviving share)\n", set.MinDelay()*1e3)
	fmt.Printf("  max rate  R_C = %.6g symbols/s (κ = μ = 1: striping)\n", set.MaxRate())
	fmt.Printf("  full utilization requires μ <= %.4f (Theorem 2)\n\n", set.FullUtilizationMaxMu())
}

func printRateCurve(set remicss.ChannelSet, step float64) {
	fmt.Println("achievable rate (Theorem 4):")
	fmt.Printf("  %6s %14s\n", "μ", "R_C (sym/s)")
	for mu := 1.0; mu <= float64(set.N())+1e-9; mu += step {
		if mu > float64(set.N()) {
			mu = float64(set.N())
		}
		rc, err := set.OptimalRate(mu)
		if err != nil {
			continue
		}
		fmt.Printf("  %6.2f %14.2f\n", mu, rc)
	}
	fmt.Println()
}

func printSchedule(set remicss.ChannelSet, kappa, mu float64, obj remicss.Objective, maxRate, limited bool) error {
	res, err := remicss.SolveSchedule(remicss.ScheduleRequest{
		Set: set, Kappa: kappa, Mu: mu, Obj: obj, MaxRate: maxRate, Limited: limited,
	})
	if err != nil {
		return err
	}
	sched := res.Schedule
	mode := "unconstrained"
	if maxRate {
		mode = "at maximum rate"
	}
	if limited {
		mode += ", limited (Section IV-E)"
	}
	fmt.Printf("optimal %v schedule for κ = %g, μ = %g (%s):\n", obj, kappa, mu, mode)
	for _, a := range sched.Support() {
		fmt.Printf("  p%v = %.6f\n", a, sched[a])
	}
	fmt.Printf("resulting: Z(p) = %.6g, L(p) = %.6g, D(p) = %.6gms\n",
		sched.Risk(set, remicss.Correlation{}), sched.Loss(set, remicss.Correlation{}), sched.Delay(set)*1e3)
	if rc, err := set.OptimalRate(mu); err == nil {
		fmt.Printf("optimal rate at μ = %g: %.2f symbols/s\n", mu, rc)
	}
	// The schedule package is also reachable for diagnostics of utilization.
	if maxRate {
		targets, err := set.UtilizationTargets(mu)
		if err == nil {
			usage := sched.ChannelUsage(set.N())
			fmt.Println("per-channel symbol share (target vs schedule):")
			for i := range targets {
				fmt.Printf("  channel %d: target %.4f, schedule %.4f\n", i, targets[i], usage[i])
			}
		}
	}
	return nil
}
