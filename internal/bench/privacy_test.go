package bench

import (
	"testing"

	"remicss/internal/chaos"
	"remicss/internal/leakage"
	"remicss/internal/obs"
)

// The acceptance criterion: the builtin correlated-blackout scenario must
// score strictly higher exposure under correlation than under the paper's
// independence assumption — the whole point of the correlated model.
func TestCorrBlackoutScoresHigherUnderCorrelation(t *testing.T) {
	sc, ok := chaos.Builtin("corrblackout")
	if !ok {
		t.Fatal("corrblackout missing")
	}
	reg := obs.NewRegistry()
	res, err := RunChaos(ChaosConfig{
		Scenario: sc,
		Obs:      reg,
		Privacy:  &PrivacyConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FloorOK || !res.ThresholdOK {
		t.Fatalf("delivery gates failed: %+v", res)
	}
	p := res.Privacy
	if p == nil {
		t.Fatal("no privacy report")
	}
	if len(p.Groups) != 1 || p.Groups[0] != 0b011 {
		t.Fatalf("derived groups %b, want [0b011]", p.Groups)
	}
	if p.Rho != DefaultPrivacyRho {
		t.Fatalf("rho %v, want default %v", p.Rho, DefaultPrivacyRho)
	}
	if p.SymbolsScored == 0 {
		t.Fatal("no symbols scored")
	}
	if p.MeanCorrelatedExposure <= p.MeanIndependentExposure {
		t.Fatalf("mean correlated exposure %v not strictly above independent %v",
			p.MeanCorrelatedExposure, p.MeanIndependentExposure)
	}
	if p.MaxCorrelatedExposure <= p.MaxIndependentExposure {
		t.Fatalf("max correlated exposure %v not strictly above independent %v",
			p.MaxCorrelatedExposure, p.MaxIndependentExposure)
	}
	if p.MaxGroupExposure <= 0 {
		t.Fatal("group-attributable exposure is zero for a grouped schedule")
	}
	// λ = 0: the leakage bound is exactly the max correlated exposure.
	if p.LeakageBound != p.MaxCorrelatedExposure {
		t.Fatalf("λ=0 leakage bound %v != max correlated exposure %v",
			p.LeakageBound, p.MaxCorrelatedExposure)
	}
	// No budget configured: the gate is vacuous and the run passes.
	if !p.BudgetOK || !res.Pass() {
		t.Fatalf("budget gate failed without a budget: %+v", p)
	}
	// The meter's series landed in the registry with real data.
	if reg.Counter("remicss_privacy_symbols_total").Value() != p.SymbolsScored {
		t.Fatal("remicss_privacy_symbols_total does not match the report")
	}
	if reg.Counter("remicss_privacy_shares_observed_total", obs.Label{Key: "channel", Value: "0"}).Value() == 0 {
		t.Fatal("no observed shares recorded for grouped channel 0")
	}
}

// A tight budget must flip the privacy gate (and only that gate).
func TestPrivacyBudgetGate(t *testing.T) {
	sc, ok := chaos.Builtin("corrblackout")
	if !ok {
		t.Fatal("corrblackout missing")
	}
	res, err := RunChaos(ChaosConfig{
		Scenario: sc,
		Privacy:  &PrivacyConfig{Leakage: leakage.Config{Budget: 1e-6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Privacy.BudgetOK || res.Pass() {
		t.Fatalf("1e-6 budget passed with leakage bound %v", res.Privacy.LeakageBound)
	}
	if res.Privacy.Alerts == 0 {
		t.Fatal("no alerts despite budget violation")
	}
	if !res.FloorOK || !res.ThresholdOK {
		t.Fatal("privacy budget leaked into delivery gates")
	}
}

// Privacy scoring with the resolve chooser exercises Resolve with a model:
// the run must stay deterministic and keep the threshold floor.
func TestPrivacyWithResolveCorrelated(t *testing.T) {
	sc, ok := chaos.Builtin("corrblackout")
	if !ok {
		t.Fatal("corrblackout missing")
	}
	run := func() ChaosResult {
		res, err := RunChaos(ChaosConfig{
			Scenario: sc,
			Resolve:  true,
			Privacy:  &PrivacyConfig{Rho: 0.6},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.ThresholdOK {
		t.Fatalf("threshold floor broken under correlated resolve: %+v", a)
	}
	if a.Delivered != b.Delivered || a.Privacy.MeanCorrelatedExposure != b.Privacy.MeanCorrelatedExposure {
		t.Fatalf("correlated-resolve runs not deterministic: %+v vs %+v", a, b)
	}
	if a.Privacy.Rho != 0.6 {
		t.Fatalf("explicit rho not honored: %v", a.Privacy.Rho)
	}
}

// A scenario with no overlapping blackouts derives no groups: correlated
// and independent exposure coincide, making the report a controlled
// baseline row.
func TestPrivacyNoGroupsReducesToIndependent(t *testing.T) {
	sc, ok := chaos.Builtin("blackout")
	if !ok {
		t.Fatal("blackout missing")
	}
	res, err := RunChaos(ChaosConfig{Scenario: sc, Privacy: &PrivacyConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Privacy
	if len(p.Groups) != 0 {
		t.Fatalf("blackout derived groups %b", p.Groups)
	}
	if p.MeanCorrelatedExposure != p.MeanIndependentExposure {
		t.Fatalf("ungrouped run: correlated %v != independent %v",
			p.MeanCorrelatedExposure, p.MeanIndependentExposure)
	}
	if p.MaxGroupExposure != 0 {
		t.Fatalf("ungrouped run has group exposure %v", p.MaxGroupExposure)
	}
}
