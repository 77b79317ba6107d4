package bench

import (
	"math"
	"testing"
	"time"
)

func TestSetupDefinitions(t *testing.T) {
	d := Diverse()
	if d.N() != 5 {
		t.Fatalf("diverse N = %d", d.N())
	}
	if d.TotalMbps() != 250 {
		t.Errorf("diverse total = %v, want 250", d.TotalMbps())
	}
	l := Lossy()
	if l.Loss[4] != 0.03 {
		t.Errorf("lossy channel 5 loss = %v, want 0.03", l.Loss[4])
	}
	dd := Delayed()
	if dd.Delay[2] != 12500*time.Microsecond {
		t.Errorf("delayed channel 3 delay = %v", dd.Delay[2])
	}
	id := Identical(300)
	for i := 0; i < 5; i++ {
		if id.RateMbps[i] != 300 {
			t.Errorf("identical rate[%d] = %v", i, id.RateMbps[i])
		}
	}
}

func TestUnitConversionRoundtrip(t *testing.T) {
	pps := PacketsPerSecond(100, 1400)
	if math.Abs(pps-8928.57) > 0.01 {
		t.Errorf("100 Mbps at 1400B = %v pps", pps)
	}
	if got := Mbps(pps, 1400); math.Abs(got-100) > 1e-9 {
		t.Errorf("roundtrip = %v Mbps", got)
	}
}

func TestChannelSetMatchesSetup(t *testing.T) {
	set := Lossy().ChannelSet(1400)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set[0].Loss != 0.01 || set[4].Loss != 0.03 {
		t.Errorf("losses not carried over: %v", set.Losses())
	}
	if math.Abs(set[4].Rate-PacketsPerSecond(100, 1400)) > 1e-9 {
		t.Errorf("rate not converted: %v", set[4].Rate)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Setup: Diverse(), Kappa: 0, Mu: 1, OfferedMbps: 10, Duration: time.Second}); err == nil {
		t.Error("kappa=0 accepted")
	}
	if _, err := Run(RunConfig{Setup: Diverse(), Kappa: 1, Mu: 2, Duration: time.Second}); err == nil {
		t.Error("no offered load accepted")
	}
	if _, err := Run(RunConfig{Setup: Diverse(), Kappa: 1, Mu: 2, OfferedMbps: 10}); err == nil {
		t.Error("no duration accepted")
	}
	if _, err := Run(RunConfig{Setup: Diverse(), Kappa: 1, Mu: 2, OfferedMbps: 10, Duration: time.Second, Chooser: ChooserKind(99)}); err == nil {
		t.Error("unknown chooser accepted")
	}
}

// TestRateNearOptimalIdentical checks the paper's Section VI-A headline for
// the Identical setup: achieved rate within a few percent of R_C.
func TestRateNearOptimalIdentical(t *testing.T) {
	setup := Identical(100)
	set := setup.ChannelSet(DefaultPayloadBytes)
	for _, km := range [][2]float64{{1, 1}, {1, 3.5}, {2, 2.8}, {3, 4.2}, {5, 5}} {
		kappa, mu := km[0], km[1]
		rc, err := set.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(RunConfig{
			Setup:       setup,
			Kappa:       kappa,
			Mu:          mu,
			OfferedMbps: 1000,
			Duration:    2 * time.Second,
			Seed:        42,
		})
		if err != nil {
			t.Fatal(err)
		}
		optimal := Mbps(rc, DefaultPayloadBytes)
		gap := (optimal - res.AchievedMbps) / optimal
		if gap > 0.06 || gap < -0.01 {
			t.Errorf("identical κ=%v μ=%v: achieved %.1f vs optimal %.1f Mbps (gap %.1f%%)",
				kappa, mu, res.AchievedMbps, optimal, gap*100)
		}
	}
}

// TestRateNearOptimalDiverse is the Diverse-setup counterpart.
func TestRateNearOptimalDiverse(t *testing.T) {
	setup := Diverse()
	set := setup.ChannelSet(DefaultPayloadBytes)
	for _, km := range [][2]float64{{1, 1}, {1, 2.5}, {2, 3}, {3, 4}, {5, 5}} {
		kappa, mu := km[0], km[1]
		rc, err := set.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(RunConfig{
			Setup:       setup,
			Kappa:       kappa,
			Mu:          mu,
			OfferedMbps: 1000,
			Duration:    2 * time.Second,
			Seed:        43,
		})
		if err != nil {
			t.Fatal(err)
		}
		optimal := Mbps(rc, DefaultPayloadBytes)
		gap := (optimal - res.AchievedMbps) / optimal
		if gap > 0.08 || gap < -0.01 {
			t.Errorf("diverse κ=%v μ=%v: achieved %.1f vs optimal %.1f Mbps (gap %.1f%%)",
				kappa, mu, res.AchievedMbps, optimal, gap*100)
		}
	}
}

func TestLossMatchesModelOnLossySetup(t *testing.T) {
	// κ=1, μ=5: model loss is Π l_i ~ 3e-11, so measured loss should be ~0.
	// At μ=5 every symbol needs a share on the 5 Mbps channel, so R_C is
	// only 5 Mbps; offer below that to keep stalls out of the measurement.
	res, err := Run(RunConfig{
		Setup:       Lossy(),
		Kappa:       1,
		Mu:          5,
		OfferedMbps: 4,
		Duration:    2 * time.Second,
		Seed:        44,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction > 0.01 {
		t.Errorf("κ=1 μ=5 loss = %v, want ~0", res.LossFraction)
	}
	// κ=μ=5: every share must arrive; per-symbol loss is
	// 1 - Π(1-l_i) ≈ 0.0736.
	res, err = Run(RunConfig{
		Setup:       Lossy(),
		Kappa:       5,
		Mu:          5,
		OfferedMbps: 4,
		Duration:    2 * time.Second,
		Seed:        45,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.01)*(1-0.005)*(1-0.01)*(1-0.02)*(1-0.03)
	if math.Abs(res.LossFraction-want) > 0.02 {
		t.Errorf("κ=μ=5 loss = %v, want ~%v", res.LossFraction, want)
	}
}

func TestDelayReflectsKthSmallest(t *testing.T) {
	// Low offered load on the Delayed setup: delay should approach the
	// model's subset delay rather than queueing.
	set := Delayed().ChannelSet(DefaultPayloadBytes)
	res, err := Run(RunConfig{
		Setup:       Delayed(),
		Kappa:       5,
		Mu:          5,
		OfferedMbps: 5,
		Duration:    2 * time.Second,
		Seed:        46,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := set.SubsetDelay(5, []int{0, 1, 2, 3, 4}) // 12.5ms, the max delay
	got := res.MeanDelay.Seconds()
	if got < want || got > want+0.01 {
		t.Errorf("κ=μ=5 delay = %vs, want >= %vs (plus serialization)", got, want)
	}
}

func TestStripingChooserRun(t *testing.T) {
	setup := Diverse()
	res, err := Run(RunConfig{
		Setup:       setup,
		Chooser:     ChooserStriping,
		OfferedMbps: 1000,
		Duration:    2 * time.Second,
		Seed:        47,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AchievedMbps-250)/250 > 0.05 {
		t.Errorf("striping achieved %v Mbps, want ~250", res.AchievedMbps)
	}
}

func TestStaticMaxRateChooserRun(t *testing.T) {
	// Offer exactly R_C (75 Mbps at μ=3): the static schedule is designed
	// for that operating point; saturating it instead just overflows queues.
	res, err := Run(RunConfig{
		Setup:       Diverse(),
		Kappa:       2,
		Mu:          3,
		Chooser:     ChooserStaticMaxRate,
		OfferedMbps: 75,
		Duration:    2 * time.Second,
		Seed:        48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedMbps < 55 {
		t.Errorf("static schedule achieved %v Mbps, want near 75", res.AchievedMbps)
	}
}

func TestHostCostCapsThroughput(t *testing.T) {
	// With channels far faster than the host, throughput is host-limited:
	// ~1/(Base+PerK) symbols/s at κ=μ=1.
	res, err := Run(RunConfig{
		Setup:       Identical(800),
		Kappa:       1,
		Mu:          1,
		OfferedMbps: 5000,
		Duration:    time.Second,
		Seed:        49,
		HostCost:    DefaultHostCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	capSymbols := float64(time.Second) / float64(DefaultHostCost.Base+DefaultHostCost.PerK)
	capMbps := Mbps(capSymbols, DefaultPayloadBytes)
	if math.Abs(res.AchievedMbps-capMbps)/capMbps > 0.1 {
		t.Errorf("host-limited rate %v Mbps, want ~%v", res.AchievedMbps, capMbps)
	}
}

func TestFig2PackingShape(t *testing.T) {
	packings, err := Fig2Packing()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{1: 15, 2: 7, 3: 3}
	for m, count := range want {
		if got := len(packings[m]); got != count {
			t.Errorf("m=%d: %d symbols, want %d", m, got, count)
		}
	}
	rendered := RenderFig2([]int{3, 4, 8}, packings[2])
	if len(rendered) == 0 {
		t.Error("empty rendering")
	}
}

func TestMuSweepBounds(t *testing.T) {
	sweep := muSweep(1, 5, 0.1)
	if sweep[0] != 1 {
		t.Errorf("sweep starts at %v", sweep[0])
	}
	last := sweep[len(sweep)-1]
	if last != 5 {
		t.Errorf("sweep ends at %v", last)
	}
	for _, mu := range sweep {
		if mu < 1 || mu > 5 {
			t.Errorf("sweep value %v out of range", mu)
		}
	}
	// κ=5 sweep is the single point 5.
	if s := muSweep(5, 5, 0.1); len(s) != 1 || s[0] != 5 {
		t.Errorf("κ=5 sweep = %v", s)
	}
}

// TestFig3SmokeFast runs a coarse Fig3 sweep end to end.
func TestFig3SmokeFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := Fig3(Identical(100), FigureConfig{
		Duration: 500 * time.Millisecond,
		MuStep:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5+4+3+2+1 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.OptimalMbps <= 0 {
			t.Errorf("point κ=%v μ=%v has no optimal", p.Kappa, p.Mu)
		}
		gap := (p.OptimalMbps - p.ActualMbps) / p.OptimalMbps
		if gap > 0.15 {
			t.Errorf("κ=%v μ=%v: gap %.1f%% too wide even for a short run", p.Kappa, p.Mu, gap*100)
		}
	}
}

// TestFig4And5Smoke exercises the two-phase max-rate measurement on single
// points.
func TestFig4And5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fc := FigureConfig{Duration: 500 * time.Millisecond, MuStep: 2}
	delayPoints, err := Fig4(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(delayPoints) == 0 {
		t.Fatal("no delay points")
	}
	for _, p := range delayPoints {
		if p.OptimalMs <= 0 {
			t.Errorf("κ=%v μ=%v: optimal delay %v", p.Kappa, p.Mu, p.OptimalMs)
		}
		if p.ActualMs < p.OptimalMs*0.5 {
			t.Errorf("κ=%v μ=%v: actual %vms below optimal %vms", p.Kappa, p.Mu, p.ActualMs, p.OptimalMs)
		}
	}
	lossPoints, err := Fig5(fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lossPoints {
		if p.OptimalLoss < 0 || p.OptimalLoss > 1 {
			t.Errorf("optimal loss %v out of range", p.OptimalLoss)
		}
		if p.ActualLoss < 0 || p.ActualLoss > 1 {
			t.Errorf("actual loss %v out of range", p.ActualLoss)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := RunConfig{
		Setup:       Lossy(),
		Kappa:       2,
		Mu:          3,
		OfferedMbps: 100,
		Duration:    time.Second,
		Seed:        50,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AchievedSymbolRate != r2.AchievedSymbolRate || r1.LossFraction != r2.LossFraction ||
		r1.MeanDelay != r2.MeanDelay {
		t.Errorf("runs diverged: %+v vs %+v", r1, r2)
	}
}

// TestFig6ShapeCeiling is the regression for the paper's Section VI-C
// observation: achieved rate follows optimal while channel-limited, then
// levels off flat near 750 Mbps aggregate under the host cost model.
func TestFig6ShapeCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(mbps float64) float64 {
		setup := Identical(mbps)
		res, err := Run(RunConfig{
			Setup:       setup,
			Kappa:       1,
			Mu:          1,
			OfferedMbps: setup.TotalMbps() * 1.25,
			Duration:    time.Second,
			Seed:        1,
			HostCost:    DefaultHostCost,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AchievedMbps
	}
	// Channel-limited region: 100 Mbps/channel achieves ~500 aggregate.
	if got := run(100); math.Abs(got-500)/500 > 0.02 {
		t.Errorf("at 100 Mbps/channel achieved %v, want ~500", got)
	}
	// Host-limited region: flat ceiling independent of channel rate.
	at400, at800 := run(400), run(800)
	if math.Abs(at400-at800) > 10 {
		t.Errorf("ceiling not flat: %v at 400 vs %v at 800", at400, at800)
	}
	if at800 < 700 || at800 > 790 {
		t.Errorf("ceiling %v outside the ~750 Mbps band", at800)
	}
}

// TestFig7KappaOrdering: at μ=5 under the host model, larger κ must yield a
// strictly lower ceiling (the O(k) split cost).
func TestFig7KappaOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prev := math.Inf(1)
	for kappa := 1.0; kappa <= 5; kappa++ {
		setup := Identical(800)
		res, err := Run(RunConfig{
			Setup:       setup,
			Kappa:       kappa,
			Mu:          5,
			OfferedMbps: setup.TotalMbps() / 5 * 1.25,
			Duration:    time.Second,
			Seed:        1,
			HostCost:    DefaultHostCost,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.AchievedMbps >= prev {
			t.Errorf("κ=%v ceiling %v not below κ=%v ceiling %v",
				kappa, res.AchievedMbps, kappa-1, prev)
		}
		prev = res.AchievedMbps
	}
}
