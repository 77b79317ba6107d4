package core

import (
	"errors"
	"fmt"
	"math"
)

// The paper's subset risk and loss formulas (Section IV-A) treat channels as
// independent Bernoulli trials, which is exact for physically disjoint paths
// but understates exposure whenever several "disjoint" channels ride one
// conduit — a shared fiber segment, cell tower, or transit AS. The types
// below extend the model with shared-risk groups under a common-cause (one-factor)
// construction: each group g carries a latent shock event; when the shock
// fires, every channel in the group is simultaneously eavesdropped (risk
// shock) or blacked out (loss shock), and the per-channel residual
// probabilities are chosen so each channel's *marginal* risk and loss stay
// exactly the z_i and l_i of the independent model. The correlation factor
// rho in [0, 1] interpolates continuously from independence (rho = 0, where
// every formula is bit-exactly the Poisson-binomial form) to the
// maximal common-cause coupling the marginals admit (rho = 1, shock
// probability min over the group). The construction follows the
// correlated-random-variable secret-sharing line of Chou (arXiv:2110.10307):
// correlation is modeled as shared randomness between the adversary's taps,
// not as a change to any single channel's quality.

// RiskGroup is one shared-risk group: a set of channels presumed to share a
// physical conduit, with common-cause correlation factors for eavesdropping
// and for loss.
type RiskGroup struct {
	// Mask selects the member channels as a bitmask over the channel set,
	// matching the subset encoding used everywhere else in this package.
	// Must select at least one channel.
	Mask uint32
	// RiskRho is the eavesdrop correlation factor in [0, 1]: the group's
	// common-cause compromise probability is RiskRho times the smallest
	// member risk. 0 restores independent eavesdropping.
	RiskRho float64
	// LossRho is the outage correlation factor in [0, 1]: the group's
	// common-cause blackout probability is LossRho times the smallest
	// member loss. 0 restores independent loss.
	LossRho float64
}

// Members returns the group's channel indices, ascending.
func (g RiskGroup) Members() []int { return maskIndices(g.Mask) }

// Correlation is a correlated-adversary model over a channel set: a set of
// disjoint shared-risk groups. Channels in no group behave independently,
// exactly as in the paper's model.
type Correlation struct {
	// Groups are the shared-risk groups. Masks must be pairwise disjoint.
	Groups []RiskGroup
}

// ErrInvalidCorrelation marks malformed correlated-adversary models.
var ErrInvalidCorrelation = errors.New("core: invalid correlation model")

// Validate checks the correlation model against an n-channel set: every
// group mask non-empty and in range, masks pairwise disjoint, factors in
// [0, 1].
func (c Correlation) Validate(n int) error {
	var seen uint32
	for i, g := range c.Groups {
		if g.Mask == 0 {
			return fmt.Errorf("%w: group %d has empty mask", ErrInvalidCorrelation, i)
		}
		if n < 32 && g.Mask >= 1<<uint(n) {
			return fmt.Errorf("%w: group %d mask %b selects channels beyond set of %d",
				ErrInvalidCorrelation, i, g.Mask, n)
		}
		if seen&g.Mask != 0 {
			return fmt.Errorf("%w: group %d mask %b overlaps an earlier group",
				ErrInvalidCorrelation, i, g.Mask)
		}
		seen |= g.Mask
		if g.RiskRho < 0 || g.RiskRho > 1 || math.IsNaN(g.RiskRho) {
			return fmt.Errorf("%w: group %d risk rho %v outside [0, 1]",
				ErrInvalidCorrelation, i, g.RiskRho)
		}
		if g.LossRho < 0 || g.LossRho > 1 || math.IsNaN(g.LossRho) {
			return fmt.Errorf("%w: group %d loss rho %v outside [0, 1]",
				ErrInvalidCorrelation, i, g.LossRho)
		}
	}
	return nil
}

// Project restricts the model to the channels in members (ascending
// full-set indices), remapping each group's mask into the subset's local
// index space — the form a failover re-solve over surviving channels needs.
// Groups left with no surviving member are dropped; correlation factors are
// unchanged, because a conduit's common cause does not weaken when some of
// its channels are already down.
func (c Correlation) Project(members []int) Correlation {
	var out Correlation
	for _, g := range c.Groups {
		var mask uint32
		for j, ch := range members {
			if g.Mask&(1<<uint(ch)) != 0 {
				mask |= 1 << uint(j)
			}
		}
		if mask == 0 {
			continue
		}
		out.Groups = append(out.Groups, RiskGroup{Mask: mask, RiskRho: g.RiskRho, LossRho: g.LossRho})
	}
	return out
}

// GroupOf returns the index of the group containing channel ch, or -1 when
// the channel is in no group.
func (c Correlation) GroupOf(ch int) int {
	for i, g := range c.Groups {
		if g.Mask&(1<<uint(ch)) != 0 {
			return i
		}
	}
	return -1
}
