package core

import (
	"fmt"
	"math"
	"math/bits"

	"remicss/internal/stats"
)

// This file is the model kernel: the Section IV-A formulas z(k, M), l(k, M)
// and d(k, M) over a member list M (ascending channel indices into the
// set), so one implementation serves mask schedules and sets far beyond
// mask range alike.
//
// Risk and loss are evaluated under a correlated-adversary model (see
// Correlation). The zero Correlation is the paper's model of independent
// channels: the shock mixture then has a single branch over the unmodified
// marginals, and each formula is exactly the Poisson-binomial tail.

// SubsetRisk computes z(k, M): the probability that an adversary observes
// at least k of the shares of a symbol sent one per channel over members.
// Under independence this is the upper tail of the Poisson binomial over
// the per-channel risks. Shared-risk groups can only raise it, because a
// common cause moves mass onto the all-members-observed outcomes a
// threshold scheme is weakest against.
//
// It panics if k is not in [1, len(members)] or a member is outside the
// set; those are programming errors in schedule construction.
func (s Set) SubsetRisk(corr Correlation, k int, members []int) float64 {
	s.checkSubset(k, members)
	var sum float64
	s.mixture(corr, members, false, func(w float64, shocked int, probs []float64) {
		sum += w * stats.TailAtLeast(probs, k-shocked)
	})
	return clampUnit(sum)
}

// SubsetLoss computes l(k, M): the probability that fewer than k shares of
// a symbol sent over members arrive, i.e. the symbol is lost. Under
// independence this is the lower tail of the Poisson binomial over the
// per-channel delivery probabilities 1 - l_i; a loss shock (a conduit cut)
// takes every member of its group down at once.
func (s Set) SubsetLoss(corr Correlation, k int, members []int) float64 {
	s.checkSubset(k, members)
	var sum float64
	s.mixture(corr, members, true, func(w float64, _ int, probs []float64) {
		sum += w * stats.TailLess(probs, k)
	})
	return clampUnit(sum)
}

// ObservedPMF returns the distribution of the number of shares an
// adversary observes out of a symbol sent over members: out[c] is the
// probability that exactly c are observed. It is the mixture, over
// common-cause shock patterns, of shifted Poisson binomials; the leakage
// meter consumes it to bound adversary advantage.
func (s Set) ObservedPMF(corr Correlation, members []int) []float64 {
	s.checkMembers(members)
	out := make([]float64, len(members)+1)
	s.mixture(corr, members, false, func(w float64, shocked int, probs []float64) {
		for c, p := range stats.Distribution(probs) {
			out[c+shocked] += w * p
		}
	})
	return out
}

// GroupExposure returns the part of the risk z(k, M) attributable to group
// g's common cause: the probability that g's shock fires and the adversary
// then observes at least k shares. Members outside g keep their marginals
// (other groups' shocks only raise the tail, so this is a lower bound on
// the attribution), which keeps it linear in the schedule probabilities:
// the schedule LP bounds it with one row per group.
func (s Set) GroupExposure(corr Correlation, g, k int, members []int) float64 {
	s.checkSubset(k, members)
	if g < 0 || g >= len(corr.Groups) {
		panic(fmt.Sprintf("core: group index %d outside [0, %d)", g, len(corr.Groups)))
	}
	grp := corr.Groups[g]
	q := s.shockProb(grp.Mask, grp.RiskRho, false)
	if q == 0 {
		return 0
	}
	sure := 0
	rest := make([]float64, 0, len(members))
	for _, i := range members {
		if grp.Mask&(1<<uint(i)) != 0 {
			sure++
		} else {
			rest = append(rest, s[i].Risk)
		}
	}
	return q * stats.TailAtLeast(rest, k-sure)
}

// SubsetDelay computes d(k, M): the expected time in seconds from sending
// a symbol's shares over members until k of them have arrived, conditioned
// on the symbol not being lost. Per the paper, this is the average over
// every delivered set K ⊆ M with |K| >= k of the k-th smallest delay in K,
// weighted by the probability that K is exactly the delivered set and
// normalized by 1 - l(k, M). The cost is exponential in len(members).
func (s Set) SubsetDelay(k int, members []int) float64 {
	s.checkSubset(k, members)
	m := len(members)
	delays := make([]float64, m)
	losses := make([]float64, m)
	for j, i := range members {
		delays[j] = s[i].Delay.Seconds()
		losses[j] = s[i].Loss
	}

	var weighted, pDeliver float64
	full := uint32(1)<<uint(m) - 1
	for sub := full; ; sub = (sub - 1) & full {
		if bits.OnesCount32(sub) >= k {
			p := 1.0
			for j := 0; j < m; j++ {
				if sub&(1<<uint(j)) != 0 {
					p *= 1 - losses[j]
				} else {
					p *= losses[j]
				}
			}
			if p > 0 {
				weighted += stats.KthSmallest(delays, sub, k) * p
				pDeliver += p
			}
		}
		if sub == 0 {
			break
		}
	}
	if pDeliver <= 0 {
		panic("core: subset delay undefined: certain loss")
	}
	return weighted / pDeliver
}

// mixture is the common-cause shock loop behind every risk and loss
// formula. It conditions on each pattern of fired shocks among the groups
// that meet members and calls branch with the pattern's probability w, the
// number of shocked members, and the per-channel probabilities of the
// rest, in member order: residual risks, or residual delivery
// probabilities when loss is set. A shocked member is observed (risk) or
// lost (loss) with certainty. Zero-probability patterns are skipped, so
// with every factor zero only the no-shock branch runs, over the
// unmodified marginals, with w = 1.
func (s Set) mixture(corr Correlation, members []int, loss bool, branch func(w float64, shocked int, probs []float64)) {
	type liveGroup struct {
		mask uint32
		q    float64
	}
	var live []liveGroup
	for _, g := range corr.Groups {
		for _, i := range members {
			if g.Mask&(1<<uint(i)) != 0 {
				rho := g.RiskRho
				if loss {
					rho = g.LossRho
				}
				live = append(live, liveGroup{mask: g.Mask, q: s.shockProb(g.Mask, rho, loss)})
				break
			}
		}
	}

	// Each member's probability outside any shock, and its live group plus
	// one (0 for none). Residuals keep every marginal exactly z_i or l_i.
	base := make([]float64, len(members))
	var groupOf []int
	if len(live) > 0 {
		groupOf = make([]int, len(members))
	}
	for j, i := range members {
		v := s[i].Risk
		if loss {
			v = s[i].Loss
		}
		for gi, lg := range live {
			if lg.mask&(1<<uint(i)) != 0 {
				groupOf[j] = gi + 1
				v = residualProb(v, lg.q)
				break
			}
		}
		if loss {
			v = 1 - v
		}
		base[j] = v
	}
	if len(live) == 0 { // no group meets members: one branch, nothing to copy
		branch(1, 0, base)
		return
	}

	probs := make([]float64, 0, len(members))
	for pattern := uint32(0); pattern < 1<<uint(len(live)); pattern++ {
		w := 1.0
		for gi, lg := range live {
			if pattern&(1<<uint(gi)) != 0 {
				w *= lg.q
			} else {
				w *= 1 - lg.q
			}
		}
		if w == 0 {
			continue
		}
		shocked := 0
		probs = probs[:0]
		for j := range members {
			if gi := groupOf[j] - 1; gi >= 0 && pattern&(1<<uint(gi)) != 0 {
				shocked++
				continue
			}
			probs = append(probs, base[j])
		}
		branch(w, shocked, probs)
	}
}

// shockProb returns one group's common-cause event probability: rho times
// the smallest member risk (or loss). The minimum keeps every residual
// probability in [0, 1], so marginals are preserved for any rho in [0, 1].
func (s Set) shockProb(mask uint32, rho float64, loss bool) float64 {
	if rho == 0 {
		return 0
	}
	min := math.Inf(1)
	for m := mask; m != 0; m &= m - 1 {
		c := s[bits.TrailingZeros32(m)]
		v := c.Risk
		if loss {
			v = c.Loss
		}
		if v < min {
			min = v
		}
	}
	return rho * min
}

// residualProb returns the channel probability conditioned on the group
// shock not firing: solving q + (1-q)·p' = p for p'. A shock probability at
// (or within rounding of) 1 leaves no residual mass.
func residualProb(p, q float64) float64 {
	if q >= 1-1e-12 {
		return 0
	}
	return clampUnit((p - q) / (1 - q))
}

func clampUnit(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// checkSubset panics unless 1 <= k <= len(members) and every member is a
// channel of the set.
func (s Set) checkSubset(k int, members []int) {
	if k < 1 || k > len(members) {
		panic(fmt.Sprintf("core: threshold %d outside [1, %d]", k, len(members)))
	}
	s.checkMembers(members)
}

func (s Set) checkMembers(members []int) {
	for _, i := range members {
		if i < 0 || i >= len(s) {
			panic(fmt.Sprintf("core: member %d outside set of %d", i, len(s)))
		}
	}
}
