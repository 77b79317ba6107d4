package core

import (
	"fmt"
	"math"
)

// ConstructLimitedSchedule builds a valid limited share schedule (Theorem
// 5): a distribution over M' = {(k, M) : k >= ⌊κ⌋, |M| >= ⌊μ⌋} whose
// average threshold is exactly kappa and average multiplicity exactly mu.
// The paper states the theorem and omits the construction; this is one.
//
// Construction: couple the roundings with a single "phase" so that the
// schedule mixes at most four assignments — (k↓ or k↑) × (M of size m↓ or
// m↑) — with product weights wk·wm, where wk = ⌈κ⌉-κ is the weight of k↓
// and wm analogously for m↓. Because k ∈ {⌊κ⌋, ⌈κ⌉} every entry satisfies
// k >= ⌊κ⌋, and |M| ∈ {⌊μ⌋, ⌈μ⌉} >= ⌊μ⌋, so the schedule lies in M'.
// k <= |M| holds for every combination because κ <= μ implies
// ⌈κ⌉ <= ⌊μ⌋ except when both parameters share the same integer part, in
// which case the k↑ entries are paired only with M of size ⌈μ⌉ (see the
// sameFloor branch).
//
// Channels for each M are the prefix of the set (channel indices 0..m-1);
// callers optimizing a property should use the LP in internal/schedule with
// Request{Limited: true} instead — this construction only witnesses
// feasibility.
func (s Set) ConstructLimitedSchedule(kappa, mu float64) (Schedule, error) {
	if err := s.CheckParams(kappa, mu); err != nil {
		return nil, err
	}
	n := len(s)
	kLo := int(math.Floor(kappa))
	kHi := kLo + 1
	kFrac := kappa - math.Floor(kappa)
	mLo := int(math.Floor(mu))
	mHi := mLo + 1
	mFrac := mu - math.Floor(mu)

	prefix := func(m int) uint32 {
		if m > n {
			panic(fmt.Sprintf("core: prefix of %d channels in set of %d", m, n))
		}
		return uint32(1)<<uint(m) - 1
	}

	sched := make(Schedule)
	add := func(k, m int, w float64) {
		if w <= 0 {
			return
		}
		sched[Assignment{K: k, Mask: prefix(m)}] += w
	}

	if kLo == mLo && kFrac > mFrac {
		// Same integer part with κ's fraction above μ's is impossible since
		// κ <= μ.
		return nil, fmt.Errorf("%w: kappa=%v > mu=%v", ErrInvalidParams, kappa, mu)
	}

	if kLo == mLo && kFrac > 0 {
		// k↑ = kLo+1 would exceed m↓ = mLo, so couple the roundings
		// comonotonically: a single uniform u rounds both up when
		// u < frac. Intervals: u in [0, kFrac) -> (kHi, mHi);
		// u in [kFrac, mFrac) -> (kLo, mHi); u in [mFrac, 1) -> (kLo, mLo).
		add(kHi, mHi, kFrac)
		add(kLo, mHi, mFrac-kFrac)
		add(kLo, mLo, 1-mFrac)
	} else {
		// Independent product mixing is valid: every combination satisfies
		// k <= |M| (kHi <= mLo when floors differ; k = kLo <= mLo when
		// kFrac = 0).
		add(kLo, mLo, (1-kFrac)*(1-mFrac))
		add(kLo, mHi, (1-kFrac)*mFrac)
		add(kHi, mLo, kFrac*(1-mFrac))
		add(kHi, mHi, kFrac*mFrac)
	}

	if err := sched.Validate(n); err != nil {
		return nil, fmt.Errorf("core: limited construction invalid: %w", err)
	}
	return sched, nil
}
