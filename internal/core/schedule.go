package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"remicss/internal/stats"
)

// Assignment is one element of the choice set M-cal: a threshold k together
// with a channel subset M (as a bitmask over the channel set).
type Assignment struct {
	K    int
	Mask uint32
}

// M returns the multiplicity |M| of the assignment.
func (a Assignment) M() int { return bits.OnesCount32(a.Mask) }

// Members returns the channel indices of M, ascending: the member list the
// model kernel evaluates.
func (a Assignment) Members() []int { return maskIndices(a.Mask) }

// Valid reports whether 1 <= k <= |M| and the mask is non-empty within an
// n-channel set.
func (a Assignment) Valid(n int) bool {
	m := a.M()
	return a.Mask != 0 && a.Mask < 1<<uint(n) && a.K >= 1 && a.K <= m
}

// String renders the assignment for diagnostics, e.g. "(2, {0,2,4})".
func (a Assignment) String() string {
	return fmt.Sprintf("(%d, %v)", a.K, maskIndices(a.Mask))
}

// Schedule is a share schedule: the probability mass function p(k, M) over
// assignments. Entries absent from the map have probability zero.
type Schedule map[Assignment]float64

// scheduleProbTolerance bounds the acceptable deviation of the total
// probability mass from one; LP solutions carry floating-point noise.
const scheduleProbTolerance = 1e-6

// Validate checks that the schedule is a categorical distribution over valid
// assignments for an n-channel set.
func (p Schedule) Validate(n int) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: empty schedule", ErrInvalidSchedule)
	}
	var total float64
	for a, prob := range p {
		if !a.Valid(n) {
			return fmt.Errorf("%w: invalid assignment %v for n=%d", ErrInvalidSchedule, a, n)
		}
		if prob < -scheduleProbTolerance || math.IsNaN(prob) {
			return fmt.Errorf("%w: negative probability %v for %v", ErrInvalidSchedule, prob, a)
		}
		total += prob
	}
	if math.Abs(total-1) > scheduleProbTolerance {
		return fmt.Errorf("%w: probabilities sum to %v", ErrInvalidSchedule, total)
	}
	return nil
}

// ErrInvalidSchedule marks malformed share schedules.
var ErrInvalidSchedule = fmt.Errorf("core: invalid share schedule")

// The weighted sums below add their terms in the canonical assignment order
// (by k, then mask), so a schedule gives bit-identical results however its
// map was built or iterated.

// Kappa returns the average threshold κ = Σ p(k,M)·k.
func (p Schedule) Kappa() float64 {
	var sum float64
	for _, a := range p.assignments() {
		sum += p[a] * float64(a.K)
	}
	return sum
}

// Mu returns the average multiplicity μ = Σ p(k,M)·|M|.
func (p Schedule) Mu() float64 {
	var sum float64
	for _, a := range p.assignments() {
		sum += p[a] * float64(a.M())
	}
	return sum
}

// Risk returns the schedule risk Z(p) = Σ p(k,M)·z(k,M) over the set under
// the correlation model; the zero Correlation is the paper's model.
func (p Schedule) Risk(s Set, corr Correlation) float64 {
	return p.expect(func(a Assignment) float64 { return s.SubsetRisk(corr, a.K, a.Members()) })
}

// Loss returns the schedule loss L(p) = Σ p(k,M)·l(k,M) over the set under
// the correlation model.
func (p Schedule) Loss(s Set, corr Correlation) float64 {
	return p.expect(func(a Assignment) float64 { return s.SubsetLoss(corr, a.K, a.Members()) })
}

// Delay returns the schedule delay D(p) = Σ p(k,M)·d(k,M) in seconds.
//
// Note this is the unconditional average of the per-assignment conditional
// delays, matching the paper's definition of D(p).
func (p Schedule) Delay(s Set) float64 {
	return p.expect(func(a Assignment) float64 { return s.SubsetDelay(a.K, a.Members()) })
}

// GroupExposure returns the schedule's common-cause exposure attributable
// to shared-risk group g: Σ p(k,M)·e_g(k,M), the quantity the schedule
// LP's per-group rows bound.
func (p Schedule) GroupExposure(s Set, corr Correlation, g int) float64 {
	return p.expect(func(a Assignment) float64 { return s.GroupExposure(corr, g, a.K, a.Members()) })
}

// expect returns Σ p(a)·f(a) over the support.
func (p Schedule) expect(f func(Assignment) float64) float64 {
	var sum float64
	for _, a := range p.Support() {
		sum += p[a] * f(a)
	}
	return sum
}

// ChannelUsage returns, for each channel i, the proportion of symbols whose
// assignment includes channel i: Σ_{(k,M): i∈M} p(k,M). Used by the max-rate
// constraint of the Section IV-D linear program.
func (p Schedule) ChannelUsage(n int) []float64 {
	usage := make([]float64, n)
	for _, a := range p.assignments() {
		for _, i := range a.Members() {
			usage[i] += p[a]
		}
	}
	return usage
}

// Support returns the assignments with positive probability, sorted for
// deterministic iteration (by k, then mask).
func (p Schedule) Support() []Assignment {
	return slices.DeleteFunc(p.assignments(), func(a Assignment) bool { return p[a] <= 0 })
}

// assignments returns every assignment in the schedule, sorted by k, then
// mask.
func (p Schedule) assignments() []Assignment {
	out := make([]Assignment, 0, len(p))
	for a := range p {
		out = append(out, a)
	}
	slices.SortFunc(out, func(x, y Assignment) int {
		return cmp.Or(cmp.Compare(x.K, y.K), cmp.Compare(x.Mask, y.Mask))
	})
	return out
}

// EnumerateAssignments lists every valid assignment for an n-channel set:
// all (k, M) with M a non-empty subset and 1 <= k <= |M|. The order is
// deterministic: ascending mask, then ascending k.
func EnumerateAssignments(n int) []Assignment {
	var out []Assignment
	stats.ForEachSubset(n, func(mask uint32) {
		if mask == 0 {
			return
		}
		m := bits.OnesCount32(mask)
		for k := 1; k <= m; k++ {
			out = append(out, Assignment{K: k, Mask: mask})
		}
	})
	return out
}

// EnumerateLimitedAssignments lists the restricted choice set M' of Section
// IV-E: assignments with k >= floor(kappa) and |M| >= floor(mu), used to
// accommodate the MICSS/courier threat model in which the adversary always
// controls a fixed set of channels.
func EnumerateLimitedAssignments(n int, kappa, mu float64) []Assignment {
	kMin := int(math.Floor(kappa))
	mMin := int(math.Floor(mu))
	var out []Assignment
	for _, a := range EnumerateAssignments(n) {
		if a.K >= kMin && a.M() >= mMin {
			out = append(out, a)
		}
	}
	return out
}

// maskIndices returns the channel indices selected by mask, ascending.
func maskIndices(mask uint32) []int {
	out := make([]int, 0, bits.OnesCount32(mask))
	for mask != 0 {
		i := bits.TrailingZeros32(mask)
		out = append(out, i)
		mask &^= 1 << uint(i)
	}
	return out
}

// Uniform returns the deterministic schedule that always uses assignment a.
func Uniform(a Assignment) Schedule {
	return Schedule{a: 1}
}
