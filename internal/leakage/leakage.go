// Package leakage bounds the statistical advantage a partial-observation
// adversary gains against the threshold scheme, in the style of Gupta &
// Mahdavifar's leakage-resilience analysis of Shamir sharing
// (arXiv:2405.04622).
//
// The paper's risk model z(k, M) is all-or-nothing: a symbol is "exposed"
// only when the adversary captures k full shares, and perfectly private
// otherwise. That is exact for an adversary who either taps a channel or
// does not, but real side channels leak fractions of shares — timing,
// length, radiated emissions, partially decrypted captures. This package
// models that with a per-share leakage rate λ (Config.PartialBits): from
// every share the adversary does NOT fully capture, it still learns λ bits.
// The advantage of distinguishing the secret is then bounded by
//
//	ε ≤ P(X ≥ k) + Σ_{t<k} P(X = t) · min(1, 2^{λ·(m−t) − F·(k−t)})
//
// where X is the number of fully observed shares out of m, F is the field
// width in bits per share symbol (8 for the GF(2^8) codec), and the min(1,·)
// term is the distinguishing advantage of an adversary holding t full
// shares plus λ·(m−t) leaked bits against the F·(k−t) bits of fresh entropy
// the scheme still hides. At λ = 0 the bound collapses to P(X ≥ k) — the
// paper's exposure — reflecting Shamir's perfect secrecy below threshold.
//
// The Meter aggregates these bounds over a live stream of scheduled
// symbols, fed from sender schedule commitments and receiver/obs
// share-exposure counts, and exports remicss_privacy_* metric series plus a
// privacy-alert trace event when a symbol's bound exceeds the configured
// budget.
package leakage

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"remicss/internal/core"
	"remicss/internal/obs"
	"remicss/internal/stats"
)

// Config parameterizes the leakage model.
type Config struct {
	// FieldBits is the field width F in bits per share symbol. 0 means the
	// GF(2^8) codec's 8.
	FieldBits int
	// PartialBits is λ: the bits of side-channel information the adversary
	// extracts from each share it does not fully observe. 0 models the
	// paper's all-or-nothing adversary, under which the advantage bound
	// equals the subset exposure exactly.
	PartialBits float64
	// Budget is the adversary-advantage budget per symbol. When positive,
	// a symbol whose bound exceeds it raises the privacy-alert counter and
	// trace event. 0 disables alerting.
	Budget float64
}

func (c Config) withDefaults() Config {
	if c.FieldBits == 0 {
		c.FieldBits = 8
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FieldBits < 0 {
		return fmt.Errorf("leakage: negative field width %d", c.FieldBits)
	}
	if c.PartialBits < 0 || math.IsNaN(c.PartialBits) {
		return fmt.Errorf("leakage: invalid partial-share leakage %v", c.PartialBits)
	}
	if c.Budget < 0 || c.Budget > 1 || math.IsNaN(c.Budget) {
		return fmt.Errorf("leakage: advantage budget %v outside [0, 1]", c.Budget)
	}
	return nil
}

// AdvantageBound computes the per-symbol advantage bound ε for a k-threshold
// symbol whose shares cross channels observed independently with the given
// probabilities. With Config.PartialBits zero this equals the paper's
// exposure z(k, M) bit-exactly.
func AdvantageBound(probs []float64, k int, cfg Config) float64 {
	return AdvantageBoundPMF(stats.Distribution(probs), k, cfg)
}

// AdvantageBoundPMF computes the advantage bound from a precomputed pmf of
// the fully-observed share count (pmf[t] = P(X = t), len(pmf) = m+1). This
// is the entry point for correlated models, whose observed-count
// distribution is a shock-pattern mixture rather than a Poisson binomial —
// see core.Set.ObservedPMF.
func AdvantageBoundPMF(pmf []float64, k int, cfg Config) float64 {
	cfg = cfg.withDefaults()
	m := len(pmf) - 1
	var eps float64
	for t := m; t >= 0; t-- {
		if t >= k {
			// Fully exposed: k shares reconstruct the symbol outright.
			eps += pmf[t]
			continue
		}
		if cfg.PartialBits == 0 {
			// Below threshold with no partial leakage: Shamir's perfect
			// secrecy leaves zero advantage. Skipping the term (rather
			// than adding pmf[t]·0) keeps the λ=0 bound bit-identical to
			// stats.TailAtLeast.
			continue
		}
		deficit := cfg.PartialBits*float64(m-t) - float64(cfg.FieldBits)*float64(k-t)
		adv := math.Exp2(deficit)
		if adv > 1 {
			adv = 1
		}
		eps += pmf[t] * adv
	}
	if eps > 1 {
		return 1
	}
	if eps < 0 {
		return 0
	}
	return eps
}

// CorrelatedAdvantageBound computes the advantage bound for a symbol sent
// over mask under a correlated-adversary model: the observed-share count is
// the common-cause mixture distribution rather than the independent Poisson
// binomial. It is never smaller than AdvantageBound over the same marginals
// when the symbol straddles a shared-risk group.
func CorrelatedAdvantageBound(set core.Set, corr core.Correlation, k int, mask uint32, cfg Config) float64 {
	return AdvantageBoundPMF(set.ObservedPMF(corr, core.Assignment{K: k, Mask: mask}.Members()), k, cfg)
}

// Score is the privacy verdict for one scheduled symbol.
type Score struct {
	// Exposure is P(X >= k): the probability the adversary captures a
	// reconstructing share set — the paper's z(k, M) under whichever
	// observation model produced the pmf.
	Exposure float64
	// Advantage is the leakage-aware bound ε >= Exposure.
	Advantage float64
	// Alert reports whether Advantage exceeded the configured budget.
	Alert bool
}

// Stats is an aggregate snapshot of a Meter.
type Stats struct {
	// Symbols is the number of symbols scored.
	Symbols int64
	// Alerts is the number of symbols whose advantage bound exceeded the
	// budget.
	Alerts int64
	// MaxExposure is the largest per-symbol exposure seen.
	MaxExposure float64
	// MaxAdvantage is the largest per-symbol advantage bound seen.
	MaxAdvantage float64
	// MeanAdvantage is the mean advantage bound across scored symbols.
	MeanAdvantage float64
	// SharesObserved counts shares recorded as exposed, per channel.
	SharesObserved []int64
}

// Meter aggregates per-symbol advantage bounds over a live session and
// exports them as remicss_privacy_* series. Construct with NewMeter; all
// methods are safe for concurrent use.
type Meter struct {
	cfg   Config
	trace *obs.Trace

	mu       sync.Mutex
	symbols  int64
	alerts   int64
	maxExp   float64
	maxAdv   float64
	sumAdv   float64
	observed []int64

	symbolsTotal   *obs.Counter
	alertsTotal    *obs.Counter
	exposureMax    *obs.Gauge
	advantageMax   *obs.Gauge
	advantageMean  *obs.Gauge
	sharesObserved []*obs.Counter
}

// NewMeter builds a meter for a session over the given number of channels.
// reg and trace are optional; with a registry the meter registers its
// remicss_privacy_* series eagerly so they expose at zero before traffic,
// matching the rest of the obs layer. Panics on an invalid config, which is
// a programming error at session setup.
func NewMeter(cfg Config, channels int, reg *obs.Registry, trace *obs.Trace) *Meter {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Meter{
		cfg:      cfg.withDefaults(),
		trace:    trace,
		observed: make([]int64, channels),
	}
	if reg != nil {
		m.symbolsTotal = reg.Counter("remicss_privacy_symbols_total")
		m.alertsTotal = reg.Counter("remicss_privacy_alerts_total")
		m.exposureMax = reg.Gauge("remicss_privacy_exposure_max_ppm")
		m.advantageMax = reg.Gauge("remicss_privacy_advantage_max_ppm")
		m.advantageMean = reg.Gauge("remicss_privacy_advantage_mean_ppm")
		m.sharesObserved = make([]*obs.Counter, channels)
		for i := range m.sharesObserved {
			m.sharesObserved[i] = reg.Counter("remicss_privacy_shares_observed_total",
				obs.Label{Key: "channel", Value: strconv.Itoa(i)})
		}
	}
	return m
}

// Config returns the meter's (defaulted) configuration.
func (m *Meter) Config() Config { return m.cfg }

// RecordSymbol scores one scheduled symbol from independent per-channel
// observation probabilities and folds it into the aggregates. at and seq
// locate the symbol in the trace when an alert fires.
func (m *Meter) RecordSymbol(at time.Duration, seq uint64, k int, probs []float64) Score {
	return m.recordPMF(at, seq, k, stats.Distribution(probs))
}

// RecordSymbolPMF scores one scheduled symbol from a precomputed
// observed-share-count pmf — the correlated-model feed, paired with
// core.Set.ObservedPMF.
func (m *Meter) RecordSymbolPMF(at time.Duration, seq uint64, k int, pmf []float64) Score {
	return m.recordPMF(at, seq, k, pmf)
}

func (m *Meter) recordPMF(at time.Duration, seq uint64, k int, pmf []float64) Score {
	sc := Score{
		Exposure:  exposureFromPMF(pmf, k),
		Advantage: AdvantageBoundPMF(pmf, k, m.cfg),
	}
	sc.Alert = m.cfg.Budget > 0 && sc.Advantage > m.cfg.Budget

	m.mu.Lock()
	m.symbols++
	m.sumAdv += sc.Advantage
	if sc.Exposure > m.maxExp {
		m.maxExp = sc.Exposure
	}
	if sc.Advantage > m.maxAdv {
		m.maxAdv = sc.Advantage
	}
	if sc.Alert {
		m.alerts++
	}
	symbols, sumAdv := m.symbols, m.sumAdv
	maxExp, maxAdv := m.maxExp, m.maxAdv
	m.mu.Unlock()

	if m.symbolsTotal != nil {
		m.symbolsTotal.Inc()
		m.exposureMax.Set(ppm(maxExp))
		m.advantageMax.Set(ppm(maxAdv))
		m.advantageMean.Set(ppm(sumAdv / float64(symbols)))
		if sc.Alert {
			m.alertsTotal.Inc()
		}
	}
	if sc.Alert && m.trace != nil {
		m.trace.Record(obs.EventPrivacyAlert, -1, at, seq, ppm(sc.Advantage))
	}
	return sc
}

// RecordObserved feeds the receiver/obs side: n shares on channel ch are
// known (or assumed) to have been exposed to the adversary — for example
// because the channel was marked compromised in a chaos scenario, or
// because an operator flagged a conduit. Out-of-range channels are ignored.
func (m *Meter) RecordObserved(ch, n int) {
	if ch < 0 || ch >= len(m.observed) || n <= 0 {
		return
	}
	m.mu.Lock()
	m.observed[ch] += int64(n)
	m.mu.Unlock()
	if m.sharesObserved != nil {
		m.sharesObserved[ch].Add(int64(n))
	}
}

// Snapshot returns the aggregate privacy verdict so far.
func (m *Meter) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Symbols:        m.symbols,
		Alerts:         m.alerts,
		MaxExposure:    m.maxExp,
		MaxAdvantage:   m.maxAdv,
		SharesObserved: append([]int64(nil), m.observed...),
	}
	if m.symbols > 0 {
		st.MeanAdvantage = m.sumAdv / float64(m.symbols)
	}
	return st
}

// exposureFromPMF sums the upper tail P(X >= k) of an observed-count pmf.
func exposureFromPMF(pmf []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	var sum float64
	for t := k; t < len(pmf); t++ {
		sum += pmf[t]
	}
	if sum > 1 {
		return 1
	}
	if sum < 0 {
		return 0
	}
	return sum
}

// ppm scales a probability to integer parts per million for gauge export.
func ppm(p float64) int64 {
	return int64(math.Round(p * 1e6))
}
