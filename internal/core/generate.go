package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"remicss/internal/stats"
)

// Choice is one element of a program's choice set M-cal: a threshold k
// together with an explicit, ascending list of member channel indices.
// Unlike the bitmask Assignment it is not capped at 32 channels, so one
// program builder serves exhaustively enumerated small sets and generated
// candidates over hundreds of channels alike.
type Choice struct {
	K       int
	Members []int
}

// M returns the multiplicity |M|.
func (a Choice) M() int { return len(a.Members) }

// Valid reports whether 1 <= k <= |M| and the members are strictly
// ascending indices within an n-channel set.
func (a Choice) Valid(n int) bool {
	if len(a.Members) == 0 || a.K < 1 || a.K > len(a.Members) {
		return false
	}
	prev := -1
	for _, i := range a.Members {
		if i <= prev || i >= n {
			return false
		}
		prev = i
	}
	return true
}

// String renders the choice for diagnostics, e.g. "(2, [0 2 4])".
func (a Choice) String() string {
	return fmt.Sprintf("(%d, %v)", a.K, a.Members)
}

// Candidate generation settings.
const (
	// genSpread widens the multiplicity window beyond [⌊µ⌋, ⌈µ⌉]: subsets
	// of size m are generated for m within genSpread of that interval
	// (clamped to the valid range).
	genSpread = 2
	// genSamples is the number of seeded-random member subsets drawn per
	// multiplicity, on top of the deterministic greedy subsets.
	genSamples = 32
	// genSeed seeds the sampling RNG, so generation is deterministic for
	// a fixed (set, kappa, mu, limited).
	genSeed = 1
	// genMaxMultiplicity caps |M|, bounding the exponential cost of delay
	// evaluation. It never cuts below ⌈µ⌉, which feasibility requires.
	genMaxMultiplicity = stats.MaxEnumerationBits
	// genExtendTo adds greedy-only subsets (no sampling, no pruning) for
	// multiplicities above the sampled window, up to min(n, genExtendTo).
	// Larger subsets strictly reduce loss and delay at a fixed threshold,
	// so without them the unlimited program can be badly approximated;
	// greedy subsets capture that tail cheaply.
	genExtendTo = 12
)

// GenerateChoices builds a candidate choice set for the Section
// IV-B/IV-D programs without enumerating all 2^n subsets, so it scales to
// hundreds of channels. For each multiplicity m in a window around µ it
// emits:
//
//   - greedy subsets: the m best channels by each single criterion (risk,
//     loss, delay, rate) and by balanced rank — for the tail statistics the
//     per-criterion greedy subset is exactly optimal among size-m subsets;
//   - seeded-random subsets for diversity, with dominance pruning: a
//     sampled subset strictly worse than another same-size candidate in
//     risk, loss, AND delay (at the representative threshold) is dropped.
//
// Thresholds k run over [1, m] (or [⌊κ⌋, m] when limited). The window
// always contains ⌊µ⌋ and ⌈µ⌉ and thresholds ⌊κ⌋ and ⌈κ⌉, so the convex
// hull of generated (k, |M|) pairs contains (κ, µ) and the LP over the
// candidates is feasible whenever the exhaustive program is. The output is
// deterministic and sorted (by k, then members lexicographically). See
// DESIGN §11 for the approximation bound.
func GenerateChoices(s Set, kappa, mu float64, limited bool) []Choice {
	n := len(s)
	if n == 0 {
		return nil
	}

	kFloor := 1
	mFloor := 1
	if limited {
		kFloor = int(math.Floor(kappa))
		mFloor = int(math.Floor(mu))
	}
	mLo := max(1, mFloor, int(math.Floor(mu))-genSpread)
	mHi := min(n, int(math.Ceil(mu))+genSpread)
	if lid := max(int(math.Ceil(mu)), genMaxMultiplicity); mHi > lid {
		mHi = lid
	}
	if mLo > mHi {
		mLo = mHi
	}

	rng := rand.New(rand.NewSource(genSeed))
	var out []Choice
	for m := mLo; m <= mHi; m++ {
		subsets := s.candidateSubsets(m, genSamples, rng)
		kRep := clampInt(int(math.Round(kappa)), max(1, kFloor), m)
		subsets = s.pruneDominated(subsets, kRep)
		for _, members := range subsets {
			for k := max(1, kFloor); k <= m; k++ {
				out = append(out, Choice{K: k, Members: members})
			}
		}
	}

	// Greedy-only tail: larger subsets strictly reduce loss and delay at a
	// fixed threshold, so cover multiplicities above the sampled window
	// with the cheap greedy subsets alone (no sampling, no pruning).
	for m := mHi + 1; m <= min(n, genExtendTo); m++ {
		subsets := s.candidateSubsets(m, 0, rng)
		for _, members := range subsets {
			for k := max(1, kFloor); k <= m; k++ {
				out = append(out, Choice{K: k, Members: members})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].K != out[j].K {
			return out[i].K < out[j].K
		}
		return lessIntSlices(out[i].Members, out[j].Members)
	})
	return out
}

// candidateSubsets returns deduplicated member subsets of size m: the
// greedy per-criterion subsets followed by seeded-random samples. All
// member lists are ascending.
func (s Set) candidateSubsets(m, samples int, rng *rand.Rand) [][]int {
	n := len(s)
	seen := make(map[string]bool)
	var out [][]int
	add := func(members []int) {
		key := subsetKey(members)
		if !seen[key] {
			seen[key] = true
			out = append(out, members)
		}
	}

	// Greedy subsets: the m best channels by each criterion. For the
	// Poisson-binomial tails these are exactly the size-m minimizers of
	// subset risk (smallest risks) and subset loss (smallest losses); for
	// delay and rate they are strong heuristics.
	add(s.bestBy(m, func(c Channel) float64 { return c.Risk }))
	add(s.bestBy(m, func(c Channel) float64 { return c.Loss }))
	add(s.bestBy(m, func(c Channel) float64 { return c.Delay.Seconds() }))
	add(s.bestBy(m, func(c Channel) float64 { return -c.Rate }))
	add(s.bestByRankSum(m))

	// Seeded-random samples for diversity across the remaining space.
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	for t := 0; t < samples; t++ {
		for j := 0; j < m; j++ { // partial Fisher-Yates
			r := j + rng.Intn(n-j)
			pool[j], pool[r] = pool[r], pool[j]
		}
		members := append([]int(nil), pool[:m]...)
		sort.Ints(members)
		add(members)
	}
	return out
}

// bestBy returns the indices of the m channels with the smallest value,
// ties broken by index for determinism, returned ascending.
func (s Set) bestBy(m int, value func(Channel) float64) []int {
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return value(s[idx[a]]) < value(s[idx[b]])
	})
	members := append([]int(nil), idx[:m]...)
	sort.Ints(members)
	return members
}

// bestByRankSum returns the m channels with the smallest summed rank across
// risk, loss, and delay — a balanced compromise subset.
func (s Set) bestByRankSum(m int) []int {
	ranks := make([]float64, len(s))
	for _, value := range []func(Channel) float64{
		func(c Channel) float64 { return c.Risk },
		func(c Channel) float64 { return c.Loss },
		func(c Channel) float64 { return c.Delay.Seconds() },
	} {
		idx := make([]int, len(s))
		for i := range idx {
			idx[i] = i
		}
		v := value
		sort.SliceStable(idx, func(a, b int) bool { return v(s[idx[a]]) < v(s[idx[b]]) })
		for r, i := range idx {
			ranks[i] += float64(r)
		}
	}
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ranks[idx[a]] < ranks[idx[b]] })
	members := append([]int(nil), idx[:m]...)
	sort.Ints(members)
	return members
}

// pruneDominated drops subsets strictly worse than another candidate in
// risk, loss, and delay, all evaluated at the representative threshold
// kRep. The tails are monotone in the per-channel values, so a subset
// dominated at kRep is (empirically) dominated across the threshold range;
// ties survive, so every (k, m) group keeps at least one subset and LP
// feasibility is unaffected.
func (s Set) pruneDominated(subsets [][]int, kRep int) [][]int {
	type triple struct{ risk, loss, delay float64 }
	metrics := make([]triple, len(subsets))
	for i, members := range subsets {
		metrics[i] = triple{
			risk:  s.SubsetRisk(Correlation{}, kRep, members),
			loss:  s.SubsetLoss(Correlation{}, kRep, members),
			delay: s.SubsetDelay(kRep, members),
		}
	}
	var out [][]int
	for i, members := range subsets {
		dominated := false
		for j := range subsets {
			if i == j {
				continue
			}
			if metrics[j].risk < metrics[i].risk &&
				metrics[j].loss < metrics[i].loss &&
				metrics[j].delay < metrics[i].delay {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, members)
		}
	}
	return out
}

// subsetKey encodes an ascending member list as a map key.
func subsetKey(members []int) string {
	b := make([]byte, 0, 2*len(members))
	for _, i := range members {
		b = append(b, byte(i>>8), byte(i))
	}
	return string(b)
}

func lessIntSlices(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
