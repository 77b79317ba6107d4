// Package core implements the protocol model and optimality results of
// "Modeling Privacy and Tradeoffs in Multichannel Secret Sharing Protocols"
// (Pohly & McDaniel, DSN 2016), Sections III and IV.
//
// A channel is the quadruple (z, l, d, r): eavesdrop risk, loss
// probability, one-way delay, and rate. A channel set C holds n disjoint
// channels. A protocol is characterized by a share schedule p(k, M) — a
// categorical distribution over (threshold, channel subset) pairs — from
// which the model derives:
//
//   - subset and schedule risk Z (Poisson-binomial upper tail),
//   - subset and schedule loss L (Poisson-binomial lower tail),
//   - subset and schedule delay D (loss-weighted k-th order statistic),
//   - the achievable multichannel rate R (Theorems 1–4).
//
// Schedules encode channel subsets as bitmasks over the channel set's
// indices, matching internal/stats; the model formulas take member lists,
// so they also serve sets beyond mask range. The paper's evaluation uses
// n = 5; everything here is exact (no sampling).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Channel is one communication channel between the two endpoints, described
// by the four properties the model consumes (paper Section III-A/B).
//
// Units: Risk and Loss are probabilities; Delay is the one-way delay; Rate
// is in share symbols per second. Any consistent symbol definition works —
// the evaluation uses one UDP datagram payload per symbol.
type Channel struct {
	// Risk (z) is the probability that an adversary observes a share sent on
	// this channel. In [0, 1].
	Risk float64
	// Loss (l) is the probability that a share sent on this channel never
	// reaches the receiver. In [0, 1): a channel that always loses is
	// excluded from the set by definition.
	Loss float64
	// Delay (d) is the expected one-way latency for a share that is not
	// lost. Non-negative.
	Delay time.Duration
	// Rate (r) is the maximum number of share symbols per second. Positive.
	Rate float64
}

// Validate reports whether the channel's properties are within the ranges
// the model defines: z in [0,1], l in [0,1), d in [0,inf), r in (0,inf).
func (c Channel) Validate() error {
	switch {
	case c.Risk < 0 || c.Risk > 1 || math.IsNaN(c.Risk):
		return fmt.Errorf("%w: risk %v outside [0, 1]", ErrInvalidChannel, c.Risk)
	case c.Loss < 0 || c.Loss >= 1 || math.IsNaN(c.Loss):
		return fmt.Errorf("%w: loss %v outside [0, 1)", ErrInvalidChannel, c.Loss)
	case c.Delay < 0:
		return fmt.Errorf("%w: negative delay %v", ErrInvalidChannel, c.Delay)
	case c.Rate <= 0 || math.IsInf(c.Rate, 0) || math.IsNaN(c.Rate):
		return fmt.Errorf("%w: rate %v outside (0, inf)", ErrInvalidChannel, c.Rate)
	}
	return nil
}

// ErrInvalidChannel marks channels whose properties fall outside the model's
// ranges.
var ErrInvalidChannel = errors.New("core: invalid channel")

// ErrInvalidParams marks protocol parameters outside 1 <= kappa <= mu <= n.
var ErrInvalidParams = errors.New("core: invalid protocol parameters")

// Set is an ordered set of disjoint channels. Subset bitmasks index into
// this slice: bit i set means channel i is in the subset.
type Set []Channel

// Validate checks every channel and the set size against the subset
// enumeration cap.
func (s Set) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("%w: empty channel set", ErrInvalidChannel)
	}
	if len(s) > MaxChannels {
		return fmt.Errorf("%w: %d channels exceeds the enumeration cap %d",
			ErrInvalidChannel, len(s), MaxChannels)
	}
	for i, c := range s {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("channel %d: %w", i, err)
		}
	}
	return nil
}

// N returns the number of channels, n = |C|.
func (s Set) N() int { return len(s) }

// FullMask returns the bitmask selecting every channel in the set.
func (s Set) FullMask() uint32 { return 1<<uint(len(s)) - 1 }

// Risks returns the risk vector z.
func (s Set) Risks() []float64 {
	out := make([]float64, len(s))
	for i, c := range s {
		out[i] = c.Risk
	}
	return out
}

// Losses returns the lossiness vector l.
func (s Set) Losses() []float64 {
	out := make([]float64, len(s))
	for i, c := range s {
		out[i] = c.Loss
	}
	return out
}

// Delays returns the delay vector d in seconds.
func (s Set) Delays() []float64 {
	out := make([]float64, len(s))
	for i, c := range s {
		out[i] = c.Delay.Seconds()
	}
	return out
}

// Rates returns the rate vector r in symbols per second.
func (s Set) Rates() []float64 {
	out := make([]float64, len(s))
	for i, c := range s {
		out[i] = c.Rate
	}
	return out
}

// TotalRate returns Σ r_i, the aggregate share rate of the set.
func (s Set) TotalRate() float64 {
	var sum float64
	for _, c := range s {
		sum += c.Rate
	}
	return sum
}

// MaxChannels caps the sets Validate accepts, so subset enumeration stays
// tractable and every subset fits an Assignment bitmask. Larger sets go
// through generated choice sets (GenerateChoices).
const MaxChannels = 22

// CheckParams validates protocol parameters kappa and mu against the set:
// 1 <= kappa <= mu <= n.
func (s Set) CheckParams(kappa, mu float64) error {
	n := float64(len(s))
	if math.IsNaN(kappa) || math.IsNaN(mu) || kappa < 1 || mu < kappa || mu > n {
		return fmt.Errorf("%w: kappa=%v, mu=%v, n=%v", ErrInvalidParams, kappa, mu, n)
	}
	return nil
}
