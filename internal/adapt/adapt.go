// Package adapt closes the loop the paper leaves open: "we investigate how
// tunable protocol parameters affect the balance [...] so that these
// parameters can be chosen and adjusted accordingly" (Section III-A). The
// Controller adjusts the protocol parameters (κ, μ) at runtime from
// measured symbol loss and estimated channel risk:
//
//   - μ (redundancy) rises when measured symbol loss exceeds the target and
//     decays, with hysteresis, when conditions are clean — spending rate
//     (Theorem 4: R_C falls as μ rises) only while it buys reliability.
//   - κ (privacy) is pinned to the smallest threshold whose optimal
//     schedule meets the confidentiality target against the current risk
//     vector, recomputed on Retune.
package adapt

import (
	"errors"
	"fmt"
	"math"

	"remicss/internal/core"
	"remicss/internal/schedule"
)

// Config parameterizes a Controller.
type Config struct {
	// N is the number of channels (μ never exceeds it).
	N int
	// TargetLoss is the maximum acceptable symbol loss fraction.
	TargetLoss float64
	// MaxRisk is the maximum acceptable schedule risk Z(p); Retune raises κ
	// until it is met (or κ = μ).
	MaxRisk float64
	// KappaFloor is the policy minimum threshold regardless of risk.
	// Defaults to 1.
	KappaFloor float64
	// Step is the μ adjustment per decision. Defaults to 0.5.
	Step float64
	// DecayAfter is how many consecutive clean observations precede a μ
	// decrease. Defaults to 3.
	DecayAfter int
	// Cache memoizes Retune's max-rate solves by quantized channel state and
	// probed (κ, μ), so periodic retuning over a slowly-drifting risk vector
	// is a cache hit or a warm simplex re-solve instead of a cold solve. Nil
	// gives the controller a private cache.
	Cache *schedule.Cache
}

func (c *Config) applyDefaults() {
	if c.KappaFloor < 1 {
		c.KappaFloor = 1
	}
	if c.Step <= 0 {
		c.Step = 0.5
	}
	if c.DecayAfter <= 0 {
		c.DecayAfter = 3
	}
}

// Controller holds the adaptive parameter state. Not safe for concurrent
// use.
type Controller struct {
	cfg   Config
	kappa float64
	mu    float64
	clean int

	raises, decays int
}

// New builds a controller starting at κ = KappaFloor, μ = κ.
func New(cfg Config) (*Controller, error) {
	cfg.applyDefaults()
	if cfg.N < 1 {
		return nil, errors.New("adapt: need at least one channel")
	}
	if cfg.TargetLoss < 0 || cfg.TargetLoss >= 1 || math.IsNaN(cfg.TargetLoss) {
		return nil, fmt.Errorf("adapt: target loss %v outside [0, 1)", cfg.TargetLoss)
	}
	if cfg.MaxRisk <= 0 || cfg.MaxRisk > 1 {
		return nil, fmt.Errorf("adapt: max risk %v outside (0, 1]", cfg.MaxRisk)
	}
	if cfg.KappaFloor > float64(cfg.N) {
		return nil, fmt.Errorf("adapt: kappa floor %v above n=%d", cfg.KappaFloor, cfg.N)
	}
	if cfg.Cache == nil {
		cfg.Cache = schedule.NewCache(schedule.CacheConfig{})
	}
	return &Controller{cfg: cfg, kappa: cfg.KappaFloor, mu: cfg.KappaFloor}, nil
}

// Params returns the current (κ, μ).
func (c *Controller) Params() (kappa, mu float64) { return c.kappa, c.mu }

// Adjustments returns how many times μ was raised and lowered.
func (c *Controller) Adjustments() (raises, decays int) { return c.raises, c.decays }

// ObserveLoss feeds one epoch's measured symbol loss fraction and adjusts μ.
func (c *Controller) ObserveLoss(loss float64) {
	if loss > c.cfg.TargetLoss {
		c.clean = 0
		if next := math.Min(c.mu+c.cfg.Step, float64(c.cfg.N)); next > c.mu {
			c.mu = next
			c.raises++
		}
		return
	}
	c.clean++
	// Decay only after sustained clean epochs, and never below κ.
	if c.clean >= c.cfg.DecayAfter {
		c.clean = 0
		if next := math.Max(c.mu-c.cfg.Step, c.kappa); next < c.mu {
			c.mu = next
			c.decays++
		}
	}
}

// Retune recomputes κ for the given channel set (whose risks may have been
// re-estimated): the smallest κ >= KappaFloor whose risk-optimal max-rate
// schedule meets MaxRisk. μ is raised to κ if needed. It returns the chosen
// κ and the achieved risk; if even κ = n cannot meet the target, κ is set
// to n and the residual risk is returned with ErrRiskUnmet.
func (c *Controller) Retune(set core.Set) (float64, float64, error) {
	if set.N() != c.cfg.N {
		return 0, 0, fmt.Errorf("adapt: set has %d channels, controller configured for %d", set.N(), c.cfg.N)
	}
	n := float64(c.cfg.N)
	var lastRisk float64
	for kappa := c.cfg.KappaFloor; kappa <= n; kappa++ {
		mu := math.Max(c.mu, kappa)
		res, _, err := c.cfg.Cache.Solve(schedule.Request{
			Set: set, Kappa: kappa, Mu: mu, Obj: schedule.ObjectiveRisk, MaxRate: true,
		})
		if err != nil {
			return 0, 0, fmt.Errorf("adapt: optimizing at κ=%v: %w", kappa, err)
		}
		lastRisk = res.Schedule.Risk(set, core.Correlation{})
		if lastRisk <= c.cfg.MaxRisk {
			c.kappa = kappa
			c.mu = mu
			return kappa, lastRisk, nil
		}
	}
	c.kappa = n
	c.mu = n
	return n, lastRisk, ErrRiskUnmet
}

// ErrRiskUnmet means even κ = n cannot reach the confidentiality target on
// the current channels; the controller pins κ = μ = n (maximum privacy).
var ErrRiskUnmet = errors.New("adapt: confidentiality target unreachable")
