package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// diverseSet mirrors the paper's Diverse setup: rates 5, 20, 60, 65, 100
// (Mbps scaled to symbols/sec 1:1), negligible loss and delay.
func diverseSet() Set {
	rates := []float64{5, 20, 60, 65, 100}
	s := make(Set, len(rates))
	for i, r := range rates {
		s[i] = Channel{Risk: 0.1, Loss: 0, Delay: 0, Rate: r}
	}
	return s
}

func identicalSet(n int, rate float64) Set {
	s := make(Set, n)
	for i := range s {
		s[i] = Channel{Risk: 0.1, Loss: 0, Delay: 0, Rate: rate}
	}
	return s
}

func TestChannelValidate(t *testing.T) {
	valid := Channel{Risk: 0.5, Loss: 0.01, Delay: time.Millisecond, Rate: 100}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid channel rejected: %v", err)
	}
	cases := []struct {
		name string
		c    Channel
	}{
		{"risk below 0", Channel{Risk: -0.1, Rate: 1}},
		{"risk above 1", Channel{Risk: 1.1, Rate: 1}},
		{"risk NaN", Channel{Risk: math.NaN(), Rate: 1}},
		{"loss 1", Channel{Loss: 1, Rate: 1}},
		{"loss negative", Channel{Loss: -0.5, Rate: 1}},
		{"negative delay", Channel{Delay: -time.Second, Rate: 1}},
		{"zero rate", Channel{Rate: 0}},
		{"infinite rate", Channel{Rate: math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); !errors.Is(err, ErrInvalidChannel) {
				t.Errorf("got %v, want ErrInvalidChannel", err)
			}
		})
	}
}

func TestSetValidate(t *testing.T) {
	if err := diverseSet().Validate(); err != nil {
		t.Errorf("diverse set rejected: %v", err)
	}
	if err := (Set{}).Validate(); !errors.Is(err, ErrInvalidChannel) {
		t.Error("empty set accepted")
	}
	bad := diverseSet()
	bad[2].Rate = 0
	if err := bad.Validate(); !errors.Is(err, ErrInvalidChannel) {
		t.Error("set with invalid channel accepted")
	}
	big := make(Set, MaxChannels+1)
	for i := range big {
		big[i] = Channel{Rate: 1}
	}
	if err := big.Validate(); !errors.Is(err, ErrInvalidChannel) {
		t.Error("oversized set accepted")
	}
}

func TestSetAccessors(t *testing.T) {
	s := Set{
		{Risk: 0.1, Loss: 0.01, Delay: 2 * time.Millisecond, Rate: 10},
		{Risk: 0.2, Loss: 0.02, Delay: 3 * time.Millisecond, Rate: 20},
	}
	if s.N() != 2 {
		t.Errorf("N = %d", s.N())
	}
	if s.FullMask() != 0b11 {
		t.Errorf("FullMask = %b", s.FullMask())
	}
	if got := s.Risks(); got[0] != 0.1 || got[1] != 0.2 {
		t.Errorf("Risks = %v", got)
	}
	if got := s.Losses(); got[0] != 0.01 || got[1] != 0.02 {
		t.Errorf("Losses = %v", got)
	}
	if got := s.Delays(); !almostEqual(got[0], 0.002, eps) || !almostEqual(got[1], 0.003, eps) {
		t.Errorf("Delays = %v", got)
	}
	if got := s.TotalRate(); got != 30 {
		t.Errorf("TotalRate = %v", got)
	}
}

func TestSubsetRiskTwoChannels(t *testing.T) {
	s := Set{
		{Risk: 0.3, Rate: 1},
		{Risk: 0.5, Rate: 1},
	}
	// k=1: adversary needs either share: 1 - 0.7*0.5 = 0.65.
	if got := s.SubsetRisk(Correlation{}, 1, maskIndices(0b11)); !almostEqual(got, 0.65, eps) {
		t.Errorf("SubsetRisk(1, both) = %v, want 0.65", got)
	}
	// k=2: both shares: 0.15.
	if got := s.SubsetRisk(Correlation{}, 2, maskIndices(0b11)); !almostEqual(got, 0.15, eps) {
		t.Errorf("SubsetRisk(2, both) = %v, want 0.15", got)
	}
	// Single channel.
	if got := s.SubsetRisk(Correlation{}, 1, maskIndices(0b10)); !almostEqual(got, 0.5, eps) {
		t.Errorf("SubsetRisk(1, {1}) = %v, want 0.5", got)
	}
}

func TestSubsetLossTwoChannels(t *testing.T) {
	s := Set{
		{Loss: 0.1, Rate: 1},
		{Loss: 0.2, Rate: 1},
	}
	// k=1: symbol lost only if both shares lost: 0.02.
	if got := s.SubsetLoss(Correlation{}, 1, maskIndices(0b11)); !almostEqual(got, 0.02, eps) {
		t.Errorf("SubsetLoss(1, both) = %v, want 0.02", got)
	}
	// k=2: lost if either share lost: 1 - 0.9*0.8 = 0.28.
	if got := s.SubsetLoss(Correlation{}, 2, maskIndices(0b11)); !almostEqual(got, 0.28, eps) {
		t.Errorf("SubsetLoss(2, both) = %v, want 0.28", got)
	}
}

func TestSubsetDelayLossless(t *testing.T) {
	s := Set{
		{Delay: 2 * time.Second, Rate: 1},
		{Delay: 9 * time.Second, Rate: 1},
		{Delay: 10 * time.Second, Rate: 1},
	}
	// With no loss, d(k, M) is the k-th smallest delay.
	for k, want := range map[int]float64{1: 2, 2: 9, 3: 10} {
		if got := s.SubsetDelay(k, maskIndices(0b111)); !almostEqual(got, want, eps) {
			t.Errorf("SubsetDelay(%d) = %v, want %v", k, got, want)
		}
	}
	// Subset {1, 2}: delays 9, 10.
	if got := s.SubsetDelay(1, maskIndices(0b110)); !almostEqual(got, 9, eps) {
		t.Errorf("SubsetDelay(1, {1,2}) = %v, want 9", got)
	}
}

// TestSectionIVECounterexample reproduces the paper's Section IV-E example:
// three lossless channels with d = (2, 9, 10), κ = 2, μ = 3. The only
// limited schedule gives delay 9; splitting between (1, C) and (3, C) gives
// the same κ, μ with delay 6.
func TestSectionIVECounterexample(t *testing.T) {
	s := Set{
		{Delay: 2 * time.Second, Rate: 1},
		{Delay: 9 * time.Second, Rate: 1},
		{Delay: 10 * time.Second, Rate: 1},
	}
	limited := Uniform(Assignment{K: 2, Mask: 0b111})
	if got := limited.Delay(s); !almostEqual(got, 9, eps) {
		t.Errorf("limited schedule delay = %v, want 9", got)
	}
	mixed := Schedule{
		{K: 1, Mask: 0b111}: 0.5,
		{K: 3, Mask: 0b111}: 0.5,
	}
	if got := mixed.Kappa(); !almostEqual(got, 2, eps) {
		t.Errorf("mixed kappa = %v, want 2", got)
	}
	if got := mixed.Mu(); !almostEqual(got, 3, eps) {
		t.Errorf("mixed mu = %v, want 3", got)
	}
	if got := mixed.Delay(s); !almostEqual(got, 6, eps) {
		t.Errorf("mixed schedule delay = %v, want 6", got)
	}
}

func TestSubsetDelayWithLoss(t *testing.T) {
	// Two channels, k=1: delay should be weighted toward the faster channel
	// but account for the case where only the slower share survives.
	s := Set{
		{Loss: 0.5, Delay: 1 * time.Second, Rate: 1},
		{Loss: 0.5, Delay: 3 * time.Second, Rate: 1},
	}
	// Delivered sets: {0,1} p=.25 -> delay 1; {0} p=.25 -> 1; {1} p=.25 -> 3.
	// Conditional on delivery (p=.75): (0.25*1 + 0.25*1 + 0.25*3)/0.75 = 5/3.
	want := 5.0 / 3.0
	if got := s.SubsetDelay(1, maskIndices(0b11)); !almostEqual(got, want, eps) {
		t.Errorf("SubsetDelay(1) = %v, want %v", got, want)
	}
	// k=2 requires both shares: delay 3 whenever delivered.
	if got := s.SubsetDelay(2, maskIndices(0b11)); !almostEqual(got, 3, eps) {
		t.Errorf("SubsetDelay(2) = %v, want 3", got)
	}
}

func TestSubsetDelayCollapsesWithoutLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(5) + 1
		s := make(Set, n)
		for i := range s {
			s[i] = Channel{Delay: time.Duration(rng.Intn(1000)) * time.Millisecond, Rate: 1}
		}
		mask := s.FullMask()
		for k := 1; k <= n; k++ {
			want := kthSmallestDelay(s, k)
			if got := s.SubsetDelay(k, maskIndices(mask)); !almostEqual(got, want, eps) {
				t.Fatalf("n=%d k=%d: delay %v, want %v", n, k, got, want)
			}
		}
	}
}

func kthSmallestDelay(s Set, k int) float64 {
	ds := s.Delays()
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			if ds[j] < ds[i] {
				ds[i], ds[j] = ds[j], ds[i]
			}
		}
	}
	return ds[k-1]
}

func TestSubsetPanicsOnBadParams(t *testing.T) {
	s := diverseSet()
	for name, fn := range map[string]func(){
		"risk k=0":        func() { s.SubsetRisk(Correlation{}, 0, maskIndices(0b1)) },
		"risk k>m":        func() { s.SubsetRisk(Correlation{}, 2, maskIndices(0b1)) },
		"loss k=0":        func() { s.SubsetLoss(Correlation{}, 0, maskIndices(0b1)) },
		"delay k>m":       func() { s.SubsetDelay(3, maskIndices(0b11)) },
		"mask beyond set": func() { s.SubsetRisk(Correlation{}, 1, maskIndices(1<<7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestExtremalPrivacyLossDelay(t *testing.T) {
	s := Set{
		{Risk: 0.5, Loss: 0.1, Delay: 5 * time.Millisecond, Rate: 10},
		{Risk: 0.4, Loss: 0.2, Delay: 1 * time.Millisecond, Rate: 20},
		{Risk: 0.3, Loss: 0.3, Delay: 9 * time.Millisecond, Rate: 30},
	}
	if got := s.MaxPrivacyRisk(); !almostEqual(got, 0.5*0.4*0.3, eps) {
		t.Errorf("MaxPrivacyRisk = %v", got)
	}
	if got := s.MinLoss(); !almostEqual(got, 0.1*0.2*0.3, eps) {
		t.Errorf("MinLoss = %v", got)
	}
	// The extremal schedules evaluate to the closed forms.
	if got := s.MaxPrivacySchedule().Risk(s, Correlation{}); !almostEqual(got, s.MaxPrivacyRisk(), eps) {
		t.Errorf("MaxPrivacySchedule risk = %v, want %v", got, s.MaxPrivacyRisk())
	}
	if got := s.MinLossSchedule().Loss(s, Correlation{}); !almostEqual(got, s.MinLoss(), eps) {
		t.Errorf("MinLossSchedule loss = %v, want %v", got, s.MinLoss())
	}
	if got := s.MinDelaySchedule().Delay(s); !almostEqual(got, s.MinDelay(), eps) {
		t.Errorf("MinDelaySchedule delay = %v, want MinDelay = %v", got, s.MinDelay())
	}
}

func TestMinDelayLossless(t *testing.T) {
	s := Set{
		{Delay: 7 * time.Millisecond, Rate: 1},
		{Delay: 3 * time.Millisecond, Rate: 1},
		{Delay: 5 * time.Millisecond, Rate: 1},
	}
	if got := s.MinDelay(); !almostEqual(got, 0.003, eps) {
		t.Errorf("MinDelay = %v, want 0.003", got)
	}
}

func TestMinDelayWithLoss(t *testing.T) {
	// Fastest channel loses half its shares; second-fastest takes over then.
	s := Set{
		{Loss: 0.5, Delay: 1 * time.Second, Rate: 1},
		{Loss: 0.0, Delay: 2 * time.Second, Rate: 1},
	}
	// D = [(1-0.5)*1 + (1-0)*2*0.5] / (1 - 0) = 1.5.
	if got := s.MinDelay(); !almostEqual(got, 1.5, eps) {
		t.Errorf("MinDelay = %v, want 1.5", got)
	}
}

func TestMaxRateScheduleProportions(t *testing.T) {
	s := diverseSet()
	p := s.MaxRateSchedule()
	if err := p.Validate(s.N()); err != nil {
		t.Fatalf("striping schedule invalid: %v", err)
	}
	if got := p.Kappa(); !almostEqual(got, 1, eps) {
		t.Errorf("striping kappa = %v", got)
	}
	if got := p.Mu(); !almostEqual(got, 1, eps) {
		t.Errorf("striping mu = %v", got)
	}
	total := s.TotalRate()
	for i, c := range s {
		want := c.Rate / total
		got := p[Assignment{K: 1, Mask: 1 << uint(i)}]
		if !almostEqual(got, want, eps) {
			t.Errorf("channel %d proportion = %v, want %v", i, got, want)
		}
	}
}

func TestOptimalRateDiverse(t *testing.T) {
	s := diverseSet() // rates 5, 20, 60, 65, 100; total 250.
	cases := []struct {
		mu   float64
		want float64
	}{
		{1, 250},   // striping uses every channel fully
		{2.5, 100}, // Theorem 2 boundary: total/max = 2.5
		{3, 75},    // exclude the 100 channel: 150/2
		{5, 5},     // every symbol on every channel: min rate
		{4, 25},    // binding subset S = {5,20}: 25/(4-5+2) = 25
	}
	for _, tc := range cases {
		got, err := s.OptimalRate(tc.mu)
		if err != nil {
			t.Fatalf("OptimalRate(%v): %v", tc.mu, err)
		}
		if !almostEqual(got, tc.want, 1e-6) {
			t.Errorf("OptimalRate(%v) = %v, want %v", tc.mu, got, tc.want)
		}
	}
}

func TestOptimalRateIdentical(t *testing.T) {
	// Corollary 1: identical rates are always fully utilized: R = n*r/mu.
	s := identicalSet(5, 100)
	for _, mu := range []float64{1, 1.5, 2, 3.7, 5} {
		got, err := s.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		if want := 500 / mu; !almostEqual(got, want, 1e-6) {
			t.Errorf("OptimalRate(%v) = %v, want %v", mu, got, want)
		}
	}
}

func TestOptimalRateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(7) + 1
		s := make(Set, n)
		for i := range s {
			s[i] = Channel{Rate: rng.Float64()*99 + 1}
		}
		mu := 1 + rng.Float64()*float64(n-1)
		fast, err := s.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := s.OptimalRateBruteForce(mu)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(fast, brute, 1e-6*brute) {
			t.Fatalf("n=%d mu=%v: fast %v != brute %v (rates %v)", n, mu, fast, brute, s.Rates())
		}
	}
}

func TestTheorem1LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(6) + 1
		s := make(Set, n)
		for i := range s {
			s[i] = Channel{Rate: rng.Float64()*99 + 1}
		}
		mu := 1 + rng.Float64()*float64(n-1)
		rc, err := s.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := s.RateLowerBound(mu)
		if err != nil {
			t.Fatal(err)
		}
		if rc < lb-1e-9 {
			t.Fatalf("OptimalRate %v below Theorem 1 bound %v (mu=%v, rates=%v)",
				rc, lb, mu, s.Rates())
		}
	}
}

func TestTheorem2FullUtilization(t *testing.T) {
	s := diverseSet()
	bound := s.FullUtilizationMaxMu()
	if !almostEqual(bound, 2.5, eps) {
		t.Fatalf("FullUtilizationMaxMu = %v, want 2.5", bound)
	}
	// At or below the bound, every channel is fully utilized:
	// R_C = total/mu and every utilization target is r_i/R_C < 1... with
	// equality for the fastest at the bound.
	for _, mu := range []float64{1, 2, 2.5} {
		rc, err := s.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.TotalRate() / mu; !almostEqual(rc, want, 1e-6) {
			t.Errorf("mu=%v: OptimalRate = %v, want full utilization %v", mu, rc, want)
		}
	}
	// Above the bound, the fastest channel cannot be fully utilized.
	rc, err := s.OptimalRate(3)
	if err != nil {
		t.Fatal(err)
	}
	if rc >= s.TotalRate()/3 {
		t.Errorf("mu=3: OptimalRate = %v, not below full-utilization %v", rc, s.TotalRate()/3)
	}
}

func TestCorollary1IdenticalAlwaysFullyUtilized(t *testing.T) {
	s := identicalSet(4, 50)
	if got := s.FullUtilizationMaxMu(); !almostEqual(got, 4, eps) {
		t.Errorf("identical FullUtilizationMaxMu = %v, want n = 4", got)
	}
}

func TestTheorem3MuRateRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(6) + 2
		s := make(Set, n)
		for i := range s {
			s[i] = Channel{Rate: rng.Float64()*99 + 1}
		}
		mu := 1 + rng.Float64()*float64(n-1)
		rc, err := s.OptimalRate(mu)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.MuForRate(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(back, mu, 1e-6) {
			t.Fatalf("MuForRate(OptimalRate(%v)) = %v (rates %v)", mu, back, s.Rates())
		}
	}
}

func TestCorollary2FullyUtilizedSetSize(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(6) + 1
		s := make(Set, n)
		for i := range s {
			s[i] = Channel{Rate: rng.Float64()*99 + 1}
		}
		mu := 1 + rng.Float64()*float64(n-1)
		mask, err := s.FullyUtilizedSet(mu)
		if err != nil {
			t.Fatal(err)
		}
		size := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				size++
			}
		}
		if float64(size) <= float64(n)-mu-eps {
			t.Fatalf("|A| = %d not > n-mu = %v", size, float64(n)-mu)
		}
	}
}

func TestUtilizationTargetsSumToMu(t *testing.T) {
	s := diverseSet()
	for _, mu := range []float64{1, 1.7, 2.5, 3.4, 5} {
		targets, err := s.UtilizationTargets(mu)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, u := range targets {
			if u < 0 || u > 1+eps {
				t.Errorf("mu=%v: utilization target %v out of range", mu, u)
			}
			sum += u
		}
		if !almostEqual(sum, mu, 1e-6) {
			t.Errorf("mu=%v: targets sum to %v", mu, sum)
		}
	}
}

func TestRateParamValidation(t *testing.T) {
	s := diverseSet()
	for _, mu := range []float64{0.5, 5.5, math.NaN()} {
		if _, err := s.OptimalRate(mu); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("OptimalRate(%v) error = %v, want ErrInvalidParams", mu, err)
		}
	}
	if _, err := s.MuForRate(0); !errors.Is(err, ErrInvalidParams) {
		t.Error("MuForRate(0) accepted")
	}
	if _, err := s.MuForRate(-1); !errors.Is(err, ErrInvalidParams) {
		t.Error("MuForRate(-1) accepted")
	}
}

func TestScheduleKappaMuUsage(t *testing.T) {
	p := Schedule{
		{K: 1, Mask: 0b001}: 0.5,
		{K: 2, Mask: 0b011}: 0.25,
		{K: 3, Mask: 0b111}: 0.25,
	}
	if err := p.Validate(3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := p.Kappa(); !almostEqual(got, 0.5+0.5+0.75, eps) {
		t.Errorf("Kappa = %v", got)
	}
	if got := p.Mu(); !almostEqual(got, 0.5+0.5+0.75, eps) {
		t.Errorf("Mu = %v", got)
	}
	usage := p.ChannelUsage(3)
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if !almostEqual(usage[i], want[i], eps) {
			t.Errorf("usage[%d] = %v, want %v", i, usage[i], want[i])
		}
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		p    Schedule
	}{
		{"empty", Schedule{}},
		{"sums below one", Schedule{{K: 1, Mask: 1}: 0.5}},
		{"negative probability", Schedule{{K: 1, Mask: 1}: 1.5, {K: 1, Mask: 2}: -0.5}},
		{"k above m", Schedule{{K: 2, Mask: 1}: 1}},
		{"empty mask", Schedule{{K: 1, Mask: 0}: 1}},
		{"mask beyond n", Schedule{{K: 1, Mask: 1 << 5}: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(5); !errors.Is(err, ErrInvalidSchedule) {
				t.Errorf("got %v, want ErrInvalidSchedule", err)
			}
		})
	}
}

func TestScheduleSupportDeterministic(t *testing.T) {
	p := Schedule{
		{K: 2, Mask: 0b011}: 0.5,
		{K: 1, Mask: 0b100}: 0.3,
		{K: 1, Mask: 0b010}: 0.2,
		{K: 3, Mask: 0b111}: 0,
	}
	sup := p.Support()
	if len(sup) != 3 {
		t.Fatalf("support size %d, want 3 (zero-probability entries excluded)", len(sup))
	}
	want := []Assignment{{K: 1, Mask: 0b010}, {K: 1, Mask: 0b100}, {K: 2, Mask: 0b011}}
	for i := range want {
		if sup[i] != want[i] {
			t.Errorf("support[%d] = %v, want %v", i, sup[i], want[i])
		}
	}
}

// TestScheduleSumsBitIdentical: Kappa, Mu, Risk, Loss and Delay must not
// depend on the order the schedule map was filled or is iterated in. Two
// schedules with the same 80 entries, inserted in opposite orders, are
// evaluated many times; every result must match bit for bit.
func TestScheduleSumsBitIdentical(t *testing.T) {
	s := Set{
		{Risk: 0.13, Loss: 0.011, Delay: 3 * time.Millisecond, Rate: 7},
		{Risk: 0.37, Loss: 0.023, Delay: 11 * time.Millisecond, Rate: 19},
		{Risk: 0.051, Loss: 0.0071, Delay: 5 * time.Millisecond, Rate: 61},
		{Risk: 0.29, Loss: 0.031, Delay: 17 * time.Millisecond, Rate: 67},
		{Risk: 0.083, Loss: 0.0013, Delay: 2 * time.Millisecond, Rate: 101},
	}
	corr := Correlation{Groups: []RiskGroup{
		{Mask: 0b00011, RiskRho: 0.7, LossRho: 0.4},
		{Mask: 0b11000, RiskRho: 0.9, LossRho: 0.6},
	}}
	all := EnumerateAssignments(len(s))
	rng := rand.New(rand.NewSource(5))
	probs := make([]float64, len(all))
	var total float64
	for i := range probs {
		probs[i] = rng.Float64() * math.Pow(10, -3*rng.Float64())
		total += probs[i]
	}
	forward, backward := Schedule{}, Schedule{}
	for i, a := range all {
		forward[a] = probs[i] / total
	}
	for i := len(all) - 1; i >= 0; i-- {
		backward[all[i]] = probs[i] / total
	}
	sums := func(p Schedule) []uint64 {
		out := []uint64{
			math.Float64bits(p.Kappa()), math.Float64bits(p.Mu()),
			math.Float64bits(p.Risk(s, Correlation{})), math.Float64bits(p.Loss(s, Correlation{})),
			math.Float64bits(p.Delay(s)),
			math.Float64bits(p.Risk(s, corr)), math.Float64bits(p.Loss(s, corr)),
			math.Float64bits(p.GroupExposure(s, corr, 0)), math.Float64bits(p.GroupExposure(s, corr, 1)),
		}
		for _, u := range p.ChannelUsage(len(s)) {
			out = append(out, math.Float64bits(u))
		}
		return out
	}
	want := sums(forward)
	for i := 0; i < 200; i++ {
		for _, p := range []Schedule{forward, backward} {
			if got := sums(p); !slices.Equal(got, want) {
				t.Fatalf("run %d: sums %x, want %x (Kappa, Mu, Risk, Loss, Delay, correlated Risk, Loss, "+
					"GroupExposure 0, 1, ChannelUsage bits)", i, got, want)
			}
		}
	}
}

func TestEnumerateAssignments(t *testing.T) {
	// For n channels: Σ_{m=1..n} C(n,m)·m assignments.
	wantCounts := map[int]int{1: 1, 2: 4, 3: 12, 4: 32, 5: 80}
	for n, want := range wantCounts {
		got := EnumerateAssignments(n)
		if len(got) != want {
			t.Errorf("n=%d: %d assignments, want %d", n, len(got), want)
		}
		for _, a := range got {
			if !a.Valid(n) {
				t.Errorf("n=%d: invalid assignment %v", n, a)
			}
		}
	}
}

func TestEnumerateLimitedAssignments(t *testing.T) {
	// kappa=2, mu=3 over n=3: k >= 2 and |M| >= 3 means M = C and k in {2,3}.
	got := EnumerateLimitedAssignments(3, 2, 3)
	if len(got) != 2 {
		t.Fatalf("limited assignments = %v, want 2 entries", got)
	}
	for _, a := range got {
		if a.Mask != 0b111 || a.K < 2 {
			t.Errorf("unexpected limited assignment %v", a)
		}
	}
	// Fractional parameters floor correctly.
	got = EnumerateLimitedAssignments(3, 1.5, 2.5)
	for _, a := range got {
		if a.K < 1 || a.M() < 2 {
			t.Errorf("assignment %v violates floors of (1.5, 2.5)", a)
		}
	}
}

func TestCheckParams(t *testing.T) {
	s := diverseSet()
	valid := [][2]float64{{1, 1}, {1, 5}, {2.5, 3.7}, {5, 5}}
	for _, km := range valid {
		if err := s.CheckParams(km[0], km[1]); err != nil {
			t.Errorf("CheckParams(%v, %v) = %v", km[0], km[1], err)
		}
	}
	invalid := [][2]float64{{0.5, 2}, {2, 1.5}, {1, 6}, {math.NaN(), 2}, {2, math.NaN()}}
	for _, km := range invalid {
		if err := s.CheckParams(km[0], km[1]); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("CheckParams(%v, %v) accepted", km[0], km[1])
		}
	}
}

func BenchmarkOptimalRate(b *testing.B) {
	s := diverseSet()
	for i := 0; i < b.N; i++ {
		if _, err := s.OptimalRate(3.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetDelay5(b *testing.B) {
	s := Set{
		{Loss: 0.01, Delay: 2500 * time.Microsecond, Rate: 5},
		{Loss: 0.005, Delay: 250 * time.Microsecond, Rate: 20},
		{Loss: 0.01, Delay: 12500 * time.Microsecond, Rate: 60},
		{Loss: 0.02, Delay: 5 * time.Millisecond, Rate: 65},
		{Loss: 0.03, Delay: 500 * time.Microsecond, Rate: 100},
	}
	for i := 0; i < b.N; i++ {
		s.SubsetDelay(3, maskIndices(s.FullMask()))
	}
}
