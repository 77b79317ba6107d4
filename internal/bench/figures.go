package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"remicss/internal/core"
	"remicss/internal/obs"
	"remicss/internal/schedule"
)

// FigureConfig scales the figure sweeps. The zero value uses paper-like
// defaults (except duration, which is shortened from the paper's 30–60 s to
// keep full regeneration interactive; results stabilize well before 2 s of
// virtual time at these rates).
type FigureConfig struct {
	// Duration is the measurement window per point. Default 2s.
	Duration time.Duration
	// MuStep is the μ sweep granularity. Default 0.1, as in the paper.
	MuStep float64
	// Seed drives all randomness. Default 1.
	Seed int64
	// PayloadBytes is the symbol size. Default DefaultPayloadBytes.
	PayloadBytes int
	// RateProbeMbps is the offered load for rate measurements (the paper
	// uses iperf at 1000 Mbps). Default 1000.
	RateProbeMbps float64
	// Obs and Trace, when non-nil, are threaded into every Run the sweep
	// performs (see RunConfig.Obs), so a figure regeneration can be watched
	// live over the metrics endpoint. Counters accumulate across the
	// sweep's runs.
	Obs   *obs.Registry
	Trace *obs.Trace
}

func (c FigureConfig) withDefaults() FigureConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.MuStep <= 0 {
		c.MuStep = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = DefaultPayloadBytes
	}
	if c.RateProbeMbps <= 0 {
		c.RateProbeMbps = 1000
	}
	return c
}

// muSweep enumerates μ values from kappa to n in MuStep increments,
// including both endpoints. Values are rounded to avoid floating-point
// accumulation drifting the grid.
func muSweep(kappa float64, n int, step float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		mu := math.Round((kappa+float64(i)*step)*1e9) / 1e9
		if mu >= float64(n) {
			out = append(out, float64(n))
			return out
		}
		out = append(out, mu)
	}
}

// RatePoint is one (κ, μ) sample of a rate figure.
type RatePoint struct {
	Kappa, Mu   float64
	OptimalMbps float64
	ActualMbps  float64
}

// Fig3 reproduces Figure 3: optimal and actual rate over κ and μ for the
// given setup (the paper shows the 100 Mbps Identical setup and the Diverse
// setup).
func Fig3(setup Setup, fc FigureConfig) ([]RatePoint, error) {
	fc = fc.withDefaults()
	set := setup.ChannelSet(fc.PayloadBytes)
	var points []RatePoint
	for kappa := 1; kappa <= set.N(); kappa++ {
		for _, mu := range muSweep(float64(kappa), set.N(), fc.MuStep) {
			rc, err := set.OptimalRate(mu)
			if err != nil {
				return nil, err
			}
			res, err := Run(RunConfig{
				Setup:        setup,
				Kappa:        float64(kappa),
				Mu:           mu,
				OfferedMbps:  fc.RateProbeMbps,
				Duration:     fc.Duration,
				Seed:         fc.Seed,
				PayloadBytes: fc.PayloadBytes,
				Obs:          fc.Obs,
				Trace:        fc.Trace,
			})
			if err != nil {
				return nil, fmt.Errorf("fig3 κ=%d μ=%.2f: %w", kappa, mu, err)
			}
			points = append(points, RatePoint{
				Kappa:       float64(kappa),
				Mu:          mu,
				OptimalMbps: Mbps(rc, fc.PayloadBytes),
				ActualMbps:  res.AchievedMbps,
			})
		}
	}
	return points, nil
}

// DelayPoint is one (κ, μ) sample of the delay figure.
type DelayPoint struct {
	Kappa, Mu float64
	// OptimalMs is the LP optimum D(p) at maximum rate, in milliseconds.
	OptimalMs float64
	// ActualMs is the measured mean one-way delay at the measured maximum
	// rate, in milliseconds.
	ActualMs float64
}

// Fig4 reproduces Figure 4: optimal and actual delay at maximum rate on the
// Delayed setup. Following the paper's method, the actual measurement
// offers load at the rate achieved in a first measurement pass.
func Fig4(fc FigureConfig) ([]DelayPoint, error) {
	fc = fc.withDefaults()
	setup := Delayed()
	set := setup.ChannelSet(fc.PayloadBytes)
	var points []DelayPoint
	for kappa := 1; kappa <= set.N(); kappa++ {
		for _, mu := range muSweep(float64(kappa), set.N(), fc.MuStep) {
			opt, err := schedule.Solve(schedule.Request{Set: set, Kappa: float64(kappa), Mu: mu, Obj: schedule.ObjectiveDelay, MaxRate: true})
			if err != nil {
				return nil, fmt.Errorf("fig4 κ=%d μ=%.2f: %w", kappa, mu, err)
			}
			actual, err := measureAtMaxRate(setup, float64(kappa), mu, fc)
			if err != nil {
				return nil, fmt.Errorf("fig4 κ=%d μ=%.2f: %w", kappa, mu, err)
			}
			points = append(points, DelayPoint{
				Kappa:     float64(kappa),
				Mu:        mu,
				OptimalMs: opt.Schedule.Delay(set) * 1e3,
				ActualMs:  float64(actual.MeanDelay) / float64(time.Millisecond),
			})
		}
	}
	return points, nil
}

// LossPoint is one (κ, μ) sample of the loss figure.
type LossPoint struct {
	Kappa, Mu float64
	// OptimalLoss is the LP optimum L(p) at maximum rate.
	OptimalLoss float64
	// ActualLoss is the measured fraction of offered symbols not delivered.
	ActualLoss float64
}

// Fig5 reproduces Figure 5: loss at maximum rate on the Lossy setup.
func Fig5(fc FigureConfig) ([]LossPoint, error) {
	fc = fc.withDefaults()
	setup := Lossy()
	set := setup.ChannelSet(fc.PayloadBytes)
	var points []LossPoint
	for kappa := 1; kappa <= set.N(); kappa++ {
		for _, mu := range muSweep(float64(kappa), set.N(), fc.MuStep) {
			opt, err := schedule.Solve(schedule.Request{Set: set, Kappa: float64(kappa), Mu: mu, Obj: schedule.ObjectiveLoss, MaxRate: true})
			if err != nil {
				return nil, fmt.Errorf("fig5 κ=%d μ=%.2f: %w", kappa, mu, err)
			}
			actual, err := measureAtMaxRate(setup, float64(kappa), mu, fc)
			if err != nil {
				return nil, fmt.Errorf("fig5 κ=%d μ=%.2f: %w", kappa, mu, err)
			}
			points = append(points, LossPoint{
				Kappa:       float64(kappa),
				Mu:          mu,
				OptimalLoss: opt.Schedule.Loss(set, core.Correlation{}),
				ActualLoss:  actual.LossFraction,
			})
		}
	}
	return points, nil
}

// measureAtMaxRate reproduces the paper's two-phase method: measure the
// achievable rate with a saturating probe, then run the real measurement
// offered at exactly that rate.
func measureAtMaxRate(setup Setup, kappa, mu float64, fc FigureConfig) (Result, error) {
	probe, err := Run(RunConfig{
		Setup:        setup,
		Kappa:        kappa,
		Mu:           mu,
		OfferedMbps:  fc.RateProbeMbps,
		Duration:     fc.Duration,
		Seed:         fc.Seed,
		PayloadBytes: fc.PayloadBytes,
		Obs:          fc.Obs,
		Trace:        fc.Trace,
	})
	if err != nil {
		return Result{}, err
	}
	offered := probe.AchievedMbps
	if offered <= 0 {
		return Result{}, fmt.Errorf("bench: probe achieved no throughput")
	}
	return Run(RunConfig{
		Setup:        setup,
		Kappa:        kappa,
		Mu:           mu,
		OfferedMbps:  offered,
		Duration:     fc.Duration,
		Seed:         fc.Seed + 7777,
		PayloadBytes: fc.PayloadBytes,
		Obs:          fc.Obs,
		Trace:        fc.Trace,
	})
}

// ScalingPoint is one sample of the high-bandwidth experiment.
type ScalingPoint struct {
	// ChannelMbps is the per-channel rate of the Identical setup.
	ChannelMbps float64
	// Kappa is the threshold parameter (μ is 1 in Fig6, 5 in Fig7).
	Kappa float64
	// OptimalMbps is the model's R_C in Mbps.
	OptimalMbps float64
	// ActualMbps is the achieved rate under the host cost model.
	ActualMbps float64
}

// Fig6 reproduces Figure 6: achieved vs optimal rate on the Identical setup
// as the per-channel rate grows from 100 to 800 Mbps, with κ = μ = 1. The
// sender CPU model (HostCost) reproduces the paper's leveling-off near
// 750 Mbps aggregate.
func Fig6(fc FigureConfig) ([]ScalingPoint, error) {
	return scalingSweep(fc, 1, []float64{1})
}

// Fig7 reproduces Figure 7: the same sweep with μ = 5 and κ from 1 to 5;
// larger thresholds hit the host bottleneck sooner.
func Fig7(fc FigureConfig) ([]ScalingPoint, error) {
	return scalingSweep(fc, 5, []float64{1, 2, 3, 4, 5})
}

func scalingSweep(fc FigureConfig, mu float64, kappas []float64) ([]ScalingPoint, error) {
	fc = fc.withDefaults()
	var points []ScalingPoint
	for _, kappa := range kappas {
		for mbps := 100.0; mbps <= 800; mbps += 25 {
			setup := Identical(mbps)
			set := setup.ChannelSet(fc.PayloadBytes)
			rc, err := set.OptimalRate(mu)
			if err != nil {
				return nil, err
			}
			res, err := Run(RunConfig{
				Setup:        setup,
				Kappa:        kappa,
				Mu:           mu,
				OfferedMbps:  setup.TotalMbps() / mu * 1.25,
				Duration:     fc.Duration,
				Seed:         fc.Seed,
				HostCost:     DefaultHostCost,
				PayloadBytes: fc.PayloadBytes,
				Obs:          fc.Obs,
				Trace:        fc.Trace,
			})
			if err != nil {
				return nil, fmt.Errorf("fig6/7 κ=%g rate=%g: %w", kappa, mbps, err)
			}
			points = append(points, ScalingPoint{
				ChannelMbps: mbps,
				Kappa:       kappa,
				OptimalMbps: Mbps(rc, fc.PayloadBytes),
				ActualMbps:  res.AchievedMbps,
			})
		}
	}
	return points, nil
}

// Fig2Packing reproduces Figure 2: the water-filling choice of M over one
// unit time for channel rates (3, 4, 8) at each integral multiplicity. It
// returns the packings indexed by m.
func Fig2Packing() (map[int][]uint32, error) {
	slots := []int{3, 4, 8}
	out := make(map[int][]uint32, len(slots))
	for m := 1; m <= len(slots); m++ {
		packing, err := schedule.Pack(slots, m)
		if err != nil {
			return nil, err
		}
		out[m] = packing
	}
	return out, nil
}

// RenderFig2 draws a packing as the paper's Figure 2 does: one row per
// channel, one column per source symbol, an asterisk where the symbol's
// share occupies the channel.
func RenderFig2(slots []int, packing []uint32) string {
	var b strings.Builder
	for ch := range slots {
		fmt.Fprintf(&b, "channel %d (r=%d): ", ch, slots[ch])
		for _, mask := range packing {
			if mask&(1<<uint(ch)) != 0 {
				b.WriteByte('*')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "symbols sent: %d\n", len(packing))
	return b.String()
}
