package bench

import (
	"math"

	"remicss/internal/chaos"
	"remicss/internal/core"
	"remicss/internal/leakage"
	"remicss/internal/obs"
)

// PrivacyConfig asks RunChaos to score the run's realized schedule under
// the correlated-adversary model and the statistical leakage meter, next to
// the delivery and threshold gates.
type PrivacyConfig struct {
	// Groups are the shared-risk groups as channel bitmasks. Empty derives
	// them from the scenario's overlapping blackout windows via
	// chaos.SharedGroups — the scripted faults reveal which channels share
	// a conduit.
	Groups []uint32
	// Rho is the common-cause correlation factor applied to every group,
	// for both eavesdropping and loss. 0 selects DefaultPrivacyRho.
	Rho float64
	// Leakage parameterizes the adversary-advantage bound (field width,
	// per-share partial leakage λ, and the advantage budget that arms the
	// privacy-alert gate).
	Leakage leakage.Config
}

// DefaultPrivacyRho is the correlation factor assumed for derived
// shared-risk groups when PrivacyConfig.Rho is zero: a strong but not total
// common cause, matching the worked example in DESIGN §15.
const DefaultPrivacyRho = 0.8

// PrivacyReport is the privacy-impact verdict of one chaos run: the
// realized schedule's exposure under the independence assumption, under the
// correlated model, and the leakage-aware advantage bound.
type PrivacyReport struct {
	// Groups are the shared-risk groups that were scored (bitmasks) and
	// Rho the common-cause factor applied to them.
	Groups []uint32 `json:"groups"`
	Rho    float64  `json:"rho"`
	// SymbolsScored counts scheduled symbols folded into the verdict.
	SymbolsScored int64 `json:"symbols_scored"`
	// MeanIndependentExposure and MeanCorrelatedExposure are the realized
	// schedule's mean per-symbol exposure P(adversary observes >= k
	// shares) under the paper's independence assumption and under the
	// correlated model. MaxIndependentExposure and MaxCorrelatedExposure
	// are the per-symbol maxima — the weakest symbol the schedule sent.
	MeanIndependentExposure float64 `json:"mean_independent_exposure"`
	MeanCorrelatedExposure  float64 `json:"mean_correlated_exposure"`
	MaxIndependentExposure  float64 `json:"max_independent_exposure"`
	MaxCorrelatedExposure   float64 `json:"max_correlated_exposure"`
	// MaxGroupExposure is the largest schedule-weighted common-cause
	// exposure attributable to any single group.
	MaxGroupExposure float64 `json:"max_group_exposure"`
	// LeakageBound is the maximum per-symbol adversary-advantage bound ε
	// under the correlated model and the configured partial-share leakage.
	LeakageBound float64 `json:"leakage_bound"`
	// Alerts counts symbols whose advantage bound exceeded the leakage
	// budget; BudgetOK is the gate (vacuously true with no budget).
	Alerts   int64 `json:"alerts"`
	BudgetOK bool  `json:"budget_ok"`
}

// scorePrivacy builds the correlated model for the run and scores every
// scheduled (k, M) assignment the chooser committed, feeding the leakage
// meter so the remicss_privacy_* series carry the verdict. counts is the
// realized schedule: how many symbols were sent with each assignment.
// share-exposure counts per channel come from the trace's share-sent
// events restricted to grouped channels — the correlated adversary's
// observation opportunities.
func scorePrivacy(cfg ChaosConfig, set core.Set, counts map[core.Assignment]int64, trace *obs.Trace) (*PrivacyReport, error) {
	pc := *cfg.Privacy
	if len(pc.Groups) == 0 {
		pc.Groups = chaos.SharedGroups(cfg.Scenario, set.N())
	}
	if pc.Rho == 0 {
		pc.Rho = DefaultPrivacyRho
	}
	corr := core.Correlation{}
	var groupedMask uint32
	for _, m := range pc.Groups {
		corr.Groups = append(corr.Groups, core.RiskGroup{Mask: m, RiskRho: pc.Rho, LossRho: pc.Rho})
		groupedMask |= m
	}
	if err := corr.Validate(set.N()); err != nil {
		return nil, err
	}

	meter := leakage.NewMeter(pc.Leakage, set.N(), cfg.Obs, trace)
	rep := &PrivacyReport{Groups: pc.Groups, Rho: pc.Rho}

	var sumInd, sumCorr float64
	for a, n := range counts {
		if n <= 0 {
			continue
		}
		ind := set.SubsetRisk(core.Correlation{}, a.K, a.Members())
		pmf := set.ObservedPMF(corr, a.Members())
		var sc leakage.Score
		for i := int64(0); i < n; i++ {
			sc = meter.RecordSymbolPMF(0, 0, a.K, pmf)
		}
		rep.SymbolsScored += n
		sumInd += ind * float64(n)
		sumCorr += sc.Exposure * float64(n)
		rep.MaxIndependentExposure = math.Max(rep.MaxIndependentExposure, ind)
		rep.MaxCorrelatedExposure = math.Max(rep.MaxCorrelatedExposure, sc.Exposure)
	}
	if rep.SymbolsScored > 0 {
		rep.MeanIndependentExposure = sumInd / float64(rep.SymbolsScored)
		rep.MeanCorrelatedExposure = sumCorr / float64(rep.SymbolsScored)
	}

	// Group attribution over the realized (empirical) schedule.
	if rep.SymbolsScored > 0 {
		sched := make(core.Schedule, len(counts))
		for a, n := range counts {
			sched[a] = float64(n) / float64(rep.SymbolsScored)
		}
		for g := range corr.Groups {
			rep.MaxGroupExposure = math.Max(rep.MaxGroupExposure, sched.GroupExposure(set, corr, g))
		}
	}

	// Feed the receiver/obs share-exposure counts: every share the sender
	// put on a conduit-shared channel was an observation opportunity for
	// the correlated adversary.
	for _, ev := range trace.Snapshot(nil) {
		if ev.Kind == obs.EventShareSent && ev.Channel >= 0 &&
			groupedMask&(1<<uint(ev.Channel)) != 0 {
			meter.RecordObserved(int(ev.Channel), 1)
		}
	}

	st := meter.Snapshot()
	rep.LeakageBound = st.MaxAdvantage
	rep.Alerts = st.Alerts
	rep.BudgetOK = pc.Leakage.Budget == 0 || st.MaxAdvantage <= pc.Leakage.Budget
	return rep, nil
}
