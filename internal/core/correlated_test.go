package core

import (
	"math"
	"testing"
	"time"

	"remicss/internal/stats"
)

func corrTestSet() Set {
	return Set{
		{Risk: 0.10, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.10, Loss: 0.02, Delay: 50 * time.Millisecond, Rate: 800},
		{Risk: 0.30, Loss: 0.05, Delay: 80 * time.Millisecond, Rate: 500},
	}
}

// The acceptance criterion: with every correlation factor at zero the model
// kernel must reproduce the paper's independent Poisson-binomial values
// (the mask oracles) bit-exactly, for every (k, mask) pair — not merely
// within epsilon.
func TestCorrelatedReducesToIndependentBitExact(t *testing.T) {
	set := corrTestSet()
	models := []Correlation{
		{}, // no groups at all
		{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0, LossRho: 0}}},
		{Groups: []RiskGroup{{Mask: 0b011}, {Mask: 0b100}}},
	}
	for mi, corr := range models {
		for mask := uint32(1); mask < 1<<uint(len(set)); mask++ {
			m := len(maskIndices(mask))
			for k := 1; k <= m; k++ {
				indRisk := maskRisk(set, k, mask)
				corrRisk := set.SubsetRisk(corr, k, maskIndices(mask))
				if corrRisk != indRisk {
					t.Errorf("model %d risk(k=%d, mask=%b): correlated %v != independent %v",
						mi, k, mask, corrRisk, indRisk)
				}
				indLoss := maskLoss(set, k, mask)
				corrLoss := set.SubsetLoss(corr, k, maskIndices(mask))
				if corrLoss != indLoss {
					t.Errorf("model %d loss(k=%d, mask=%b): correlated %v != independent %v",
						mi, k, mask, corrLoss, indLoss)
				}
			}
		}
	}
}

// The common-cause construction must leave each channel's marginal risk
// untouched: P(channel i observed) == z_i for any rho. A single-channel
// subset with k = 1 reads the marginal directly.
func TestCorrelatedPreservesMarginals(t *testing.T) {
	set := corrTestSet()
	for _, rho := range []float64{0, 0.25, 0.5, 0.8, 1} {
		corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: rho, LossRho: rho}}}
		for i := range set {
			mask := uint32(1) << uint(i)
			gotRisk := set.SubsetRisk(corr, 1, maskIndices(mask))
			if math.Abs(gotRisk-set[i].Risk) > 1e-12 {
				t.Errorf("rho=%v channel %d: marginal risk %v, want %v", rho, i, gotRisk, set[i].Risk)
			}
			gotLoss := set.SubsetLoss(corr, 1, maskIndices(mask))
			if math.Abs(gotLoss-set[i].Loss) > 1e-12 {
				t.Errorf("rho=%v channel %d: marginal loss %v, want %v", rho, i, gotLoss, set[i].Loss)
			}
		}
	}
}

// Exposure must be monotone in the correlation factor: coupling the taps of
// a group that a (k, M) assignment straddles can only help the adversary.
func TestCorrelatedRiskMonotoneInRho(t *testing.T) {
	set := corrTestSet()
	prev := -1.0
	for _, rho := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: rho}}}
		z := set.SubsetRisk(corr, 2, maskIndices(0b111))
		if z < prev-1e-15 {
			t.Fatalf("rho=%v: risk %v decreased from %v", rho, z, prev)
		}
		prev = z
	}
	// And strictly higher at the top than at independence.
	ind := set.SubsetRisk(Correlation{}, 2, maskIndices(0b111))
	if prev <= ind {
		t.Fatalf("rho=1 risk %v not strictly above independent %v", prev, ind)
	}
}

// The worked 3-channel example used in DESIGN.md §15: uniform z = 0.1,
// group {0, 1} with rho = 0.8 gives shock q = 0.08 and roughly triples the
// k = 2 exposure over the full mask versus the independence assumption.
func TestCorrelatedWorkedExample(t *testing.T) {
	set := Set{
		{Risk: 0.1, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.1, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.1, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
	}
	corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.8}}}

	// Independent: P(X >= 2) over three 0.1 trials = 3·0.1²·0.9 + 0.1³ = 0.028.
	ind := set.SubsetRisk(Correlation{}, 2, maskIndices(0b111))
	if math.Abs(ind-0.028) > 1e-12 {
		t.Fatalf("independent z(2,111) = %v, want 0.028", ind)
	}

	// Correlated: q = 0.8·0.1 = 0.08, residual z' = 0.02/0.92.
	// Shock branch (w = 0.08): two sure observations, tail = 1.
	// No-shock branch (w = 0.92): P(X >= 2) over {z', z', 0.1}.
	zp := 0.02 / 0.92
	noShock := zp*zp*(1-0.1) + 2*zp*(1-zp)*0.1 + zp*zp*0.1
	want := 0.08*1 + 0.92*noShock
	got := set.SubsetRisk(corr, 2, maskIndices(0b111))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("correlated z(2,111) = %v, want %v", got, want)
	}
	if got < 3*ind-0.005 {
		t.Fatalf("correlated %v not ≈3× independent %v", got, ind)
	}
}

// Cross-check the branch mixture against a brute-force oracle that
// enumerates shock patterns and then channel outcomes exhaustively.
func TestCorrelatedRiskAgainstOracle(t *testing.T) {
	set := corrTestSet()
	corr := Correlation{Groups: []RiskGroup{
		{Mask: 0b011, RiskRho: 0.6},
		{Mask: 0b100, RiskRho: 0.9},
	}}
	risks := set.Risks()
	for mask := uint32(1); mask < 1<<uint(len(set)); mask++ {
		m := len(maskIndices(mask))
		for k := 1; k <= m; k++ {
			want := oracleCorrelatedTail(set, corr, risks, k, mask)
			got := set.SubsetRisk(corr, k, maskIndices(mask))
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("risk(k=%d, mask=%b) = %v, oracle %v", k, mask, got, want)
			}
		}
	}
}

// oracleCorrelatedTail enumerates every shock pattern and, per branch, every
// subset of independently-observed channels.
func oracleCorrelatedTail(set Set, corr Correlation, marg []float64, k int, mask uint32) float64 {
	idx := maskIndices(mask)
	var live []RiskGroup
	var qs []float64
	for _, g := range corr.Groups {
		if g.Mask&mask == 0 {
			continue
		}
		live = append(live, g)
		qs = append(qs, set.shockProb(g.Mask, g.RiskRho, false))
	}
	var total float64
	for pattern := uint32(0); pattern < 1<<uint(len(live)); pattern++ {
		w := 1.0
		shocked := uint32(0)
		for gi := range live {
			if pattern&(1<<uint(gi)) != 0 {
				w *= qs[gi]
				shocked |= live[gi].Mask
			} else {
				w *= 1 - qs[gi]
			}
		}
		// Per-channel observation probability inside this branch.
		probs := make([]float64, len(idx))
		for j, ch := range idx {
			switch {
			case shocked&(1<<uint(ch)) != 0:
				probs[j] = 1
			case corr.GroupOf(ch) >= 0 && live != nil && groupLive(live, ch):
				gi := liveGroupOf(live, ch)
				probs[j] = residualProb(marg[ch], qs[gi])
			default:
				probs[j] = marg[ch]
			}
		}
		total += w * stats.TailAtLeastEnum(probs, k)
	}
	return total
}

func groupLive(live []RiskGroup, ch int) bool { return liveGroupOf(live, ch) >= 0 }

func liveGroupOf(live []RiskGroup, ch int) int {
	for i, g := range live {
		if g.Mask&(1<<uint(ch)) != 0 {
			return i
		}
	}
	return -1
}

// GroupExposure is the linear-in-p attribution the LP rows bound; it must
// never exceed the total correlated risk and must hit zero with the factor.
func TestGroupExposureBounds(t *testing.T) {
	set := corrTestSet()
	corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.8}}}
	for mask := uint32(1); mask < 1<<uint(len(set)); mask++ {
		m := len(maskIndices(mask))
		for k := 1; k <= m; k++ {
			exp := set.GroupExposure(corr, 0, k, maskIndices(mask))
			total := set.SubsetRisk(corr, k, maskIndices(mask))
			if exp < 0 || exp > total+1e-12 {
				t.Errorf("group exposure(k=%d, mask=%b) = %v outside [0, %v]", k, mask, exp, total)
			}
		}
	}
	zero := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0}}}
	if e := set.GroupExposure(zero, 0, 2, maskIndices(0b111)); e != 0 {
		t.Fatalf("zero-rho group exposure = %v, want 0", e)
	}
}

func TestCorrelationValidate(t *testing.T) {
	cases := []struct {
		name string
		corr Correlation
		n    int
		ok   bool
	}{
		{"empty model", Correlation{}, 3, true},
		{"disjoint groups", Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.5}, {Mask: 0b100}}}, 3, true},
		{"empty mask", Correlation{Groups: []RiskGroup{{Mask: 0}}}, 3, false},
		{"out of range mask", Correlation{Groups: []RiskGroup{{Mask: 0b1000}}}, 3, false},
		{"overlapping groups", Correlation{Groups: []RiskGroup{{Mask: 0b011}, {Mask: 0b110}}}, 3, false},
		{"rho above one", Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 1.5}}}, 3, false},
		{"negative loss rho", Correlation{Groups: []RiskGroup{{Mask: 0b011, LossRho: -0.1}}}, 3, false},
	}
	for _, tc := range cases {
		err := tc.corr.Validate(tc.n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRiskGroupMembers(t *testing.T) {
	g := RiskGroup{Mask: 0b101}
	got := g.Members()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Members() = %v, want [0 2]", got)
	}
}

// Schedule-level aggregates must also reduce exactly and rank correlated
// above independent when a group is straddled.
func TestCorrelatedScheduleAggregates(t *testing.T) {
	set := corrTestSet()
	sched := Schedule{
		{K: 2, Mask: 0b111}: 0.6,
		{K: 2, Mask: 0b011}: 0.4,
	}
	zero := Correlation{Groups: []RiskGroup{{Mask: 0b011}}}
	if got, want := sched.Risk(set, zero), sched.Risk(set, Correlation{}); got != want {
		t.Fatalf("zero-rho schedule risk %v != independent %v", got, want)
	}
	if got, want := sched.Loss(set, zero), sched.Loss(set, Correlation{}); got != want {
		t.Fatalf("zero-rho schedule loss %v != independent %v", got, want)
	}
	corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.8, LossRho: 0.8}}}
	if got, ind := sched.Risk(set, corr), sched.Risk(set, Correlation{}); got <= ind {
		t.Fatalf("correlated schedule risk %v not above independent %v", got, ind)
	}
	if got, ind := sched.Loss(set, corr), sched.Loss(set, Correlation{}); got <= ind {
		t.Fatalf("correlated schedule loss %v not above independent %v", got, ind)
	}
}
