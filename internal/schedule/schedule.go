// Package schedule constructs share schedules: the categorical
// distributions p(k, M) that drive a multichannel secret sharing protocol.
//
// One Request describes every linear program of the paper — Section IV-B
// (minimize schedule risk, loss, or delay subject to the average threshold
// κ and multiplicity μ), Section IV-D (MaxRate: the same minimization with
// the per-channel utilization constraints that guarantee the optimal
// multichannel rate R_C of Theorem 4), the Section IV-E limited choice set
// (k >= ⌊κ⌋ and |M| >= ⌊μ⌋, for the MICSS/courier threat model), and the
// correlated-adversary extension. Solve solves it from scratch;
// Cache.Solve memoizes it by quantized channel state.
//
// The package also provides a Sampler that draws i.i.d. assignments from a
// schedule, and Pack, the Figure-2 water-filling packer that converts
// per-channel share budgets into an explicit symbol-by-symbol sequence of
// channel subsets.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"remicss/internal/core"
	"remicss/internal/lp"
)

// Objective selects which schedule property the linear program minimizes.
type Objective int

// Objectives, matching Z(p), L(p), and D(p) from the paper.
const (
	ObjectiveRisk Objective = iota + 1
	ObjectiveLoss
	ObjectiveDelay
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveRisk:
		return "risk"
	case ObjectiveLoss:
		return "loss"
	case ObjectiveDelay:
		return "delay"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Request is one schedule optimization: minimize Obj over the choice set
// subject to the average threshold Kappa and the average multiplicity Mu
// (Section IV-B), or, with MaxRate, to Kappa and the per-channel
// utilization of the optimal rate R_C (Section IV-D).
type Request struct {
	// Set is the channel set the schedule spreads shares over.
	Set core.Set
	// Corr is the correlated-adversary model the risk and loss
	// coefficients are priced under. The zero value is the paper's model
	// of independent channels.
	Corr      core.Correlation
	Kappa, Mu float64
	Obj       Objective
	// MaxRate adds the Section IV-D constraints Σ_{(k,M): i∈M} p(k,M) =
	// min{r_i/R_C, 1}, which force a schedule capable of the optimal rate
	// R_C for Mu. They replace the μ row, which they imply (their sum is
	// μ by Theorem 3), as in the paper's program.
	MaxRate bool
	// Limited restricts the choice set to M' (Section IV-E): k >= ⌊κ⌋ and
	// |M| >= ⌊μ⌋, so that a threat model with a fixed set of compromised
	// channels sees at least ⌊κ⌋ shares required for every symbol.
	Limited bool
	// GroupExposureCap, when positive, bounds each shared-risk group's
	// common-cause exposure Σ p(k,M)·e_g(k,M) ≤ cap with one row per group
	// of Corr, in equality form with one zero-cost slack column per group.
	GroupExposureCap float64
}

// Result is a solved Request.
type Result struct {
	Schedule core.Schedule
	// Members is nil when the schedule's masks index Set directly. For sets
	// beyond core.MaxChannels the schedule is compacted onto the channels
	// its support uses: bit i of a mask selects channel Members[i] of Set.
	Members []int
	// DKappa and DMu are the shadow prices of the κ and μ rows at the
	// optimum: the marginal change of the optimal objective per unit
	// increase of each. For ObjectiveRisk, DKappa is the (negative) price
	// of privacy. DMu is zero for MaxRate requests, whose program has no μ
	// row.
	DKappa, DMu float64
}

// exactEnumerationLimit is the largest channel count for which the choice
// set is enumerated exhaustively. Beyond it the exponential enumeration is
// replaced by sampled/pruned generation (core.GenerateChoices; the
// schedules become approximate, see DESIGN §11 for the error bound).
const exactEnumerationLimit = 12

// ErrInfeasible means no share schedule satisfies the requested parameters.
var ErrInfeasible = errors.New("schedule: no feasible share schedule")

// probabilityFloor drops LP solution entries below this mass; they are
// floating-point residue, not meaningful schedule entries.
const probabilityFloor = 1e-9

// Solve builds the request's linear program and solves it from scratch.
func Solve(req Request) (Result, error) {
	prob, choices, err := req.build()
	if err != nil {
		return Result{}, err
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return Result{}, wrapLPError(err)
	}
	return req.result(sol, choices)
}

// Program materializes the linear program Solve would run, without
// solving it, so solver benchmarks (cmd/remicss-bench -schedule-json) can
// time the solve layer on real schedule programs.
func (r Request) Program() (lp.Problem, error) {
	prob, _, err := r.build()
	return prob, err
}

// build is the one program builder: it validates the request, produces
// its choice set, and lays the program out over it.
func (r Request) build() (lp.Problem, []core.Choice, error) {
	s := r.Set
	if len(s) == 0 {
		return lp.Problem{}, nil, fmt.Errorf("%w: empty channel set", core.ErrInvalidChannel)
	}
	for i, c := range s {
		if err := c.Validate(); err != nil {
			return lp.Problem{}, nil, fmt.Errorf("channel %d: %w", i, err)
		}
	}
	if err := s.CheckParams(r.Kappa, r.Mu); err != nil {
		return lp.Problem{}, nil, err
	}
	if err := r.Corr.Validate(len(s)); err != nil {
		return lp.Problem{}, nil, err
	}
	choices := r.choices()
	if len(choices) == 0 {
		return lp.Problem{}, nil, fmt.Errorf("%w: empty choice set", ErrInfeasible)
	}
	prob, err := r.program(choices)
	return prob, choices, err
}

// program lays the linear program out over a choice set. Columns are the
// choices in order, then one slack per group-exposure row; rows are Σp = 1,
// Σp·k = κ, then Σp·|M| = μ or (MaxRate) one utilization row per channel,
// then the group-exposure rows.
func (r Request) program(choices []core.Choice) (lp.Problem, error) {
	s := r.Set
	var targets []float64
	if r.MaxRate {
		var err error
		if targets, err = s.UtilizationTargets(r.Mu); err != nil {
			return lp.Problem{}, err
		}
	}
	nv := len(choices)
	var groups int
	if r.GroupExposureCap > 0 {
		groups = len(r.Corr.Groups)
	}
	row := func(coef func(core.Choice) float64) []float64 {
		a := make([]float64, nv+groups)
		for j, ch := range choices {
			a[j] = coef(ch)
		}
		return a
	}
	var prob lp.Problem
	add := func(a []float64, b float64) { prob.A, prob.B = append(prob.A, a), append(prob.B, b) }

	prob.C = row(func(ch core.Choice) float64 {
		switch r.Obj {
		case ObjectiveRisk:
			return s.SubsetRisk(r.Corr, ch.K, ch.Members)
		case ObjectiveLoss:
			return s.SubsetLoss(r.Corr, ch.K, ch.Members)
		case ObjectiveDelay:
			return s.SubsetDelay(ch.K, ch.Members)
		}
		panic(fmt.Sprintf("schedule: unknown objective %d", int(r.Obj)))
	})
	add(row(func(core.Choice) float64 { return 1 }), 1)
	add(row(func(ch core.Choice) float64 { return float64(ch.K) }), r.Kappa)
	if r.MaxRate {
		for i := range s {
			add(row(func(ch core.Choice) float64 {
				if slices.Contains(ch.Members, i) {
					return 1
				}
				return 0
			}), targets[i])
		}
	} else {
		add(row(func(ch core.Choice) float64 { return float64(ch.M()) }), r.Mu)
	}
	for g := 0; g < groups; g++ {
		a := row(func(ch core.Choice) float64 { return s.GroupExposure(r.Corr, g, ch.K, ch.Members) })
		a[nv+g] = 1
		add(a, r.GroupExposureCap)
	}
	return prob, nil
}

// choices produces the choice set: enumerated exhaustively (in
// core.EnumerateAssignments order) up to exactEnumerationLimit channels,
// generated beyond it.
func (r Request) choices() []core.Choice {
	n := len(r.Set)
	if n > exactEnumerationLimit {
		return core.GenerateChoices(r.Set, r.Kappa, r.Mu, r.Limited)
	}
	assignments := core.EnumerateAssignments(n)
	if r.Limited {
		assignments = core.EnumerateLimitedAssignments(n, r.Kappa, r.Mu)
	}
	out := make([]core.Choice, len(assignments))
	for j, a := range assignments {
		if j > 0 && a.Mask == assignments[j-1].Mask {
			out[j] = core.Choice{K: a.K, Members: out[j-1].Members}
		} else {
			out[j] = core.Choice{K: a.K, Members: a.Members()}
		}
	}
	return out
}

// result converts an LP solution into a validated schedule, dropping
// floating-point residue and, beyond core.MaxChannels, compacting the
// masks onto the union of the support's members.
func (r Request) result(sol lp.Solution, choices []core.Choice) (Result, error) {
	res := Result{DKappa: sol.Duals[1]}
	if !r.MaxRate {
		res.DMu = sol.Duals[2]
	}
	// Indices into choices; the group slack columns carry no mass.
	var support []int
	for j, p := range sol.X[:len(choices)] {
		if p > probabilityFloor {
			support = append(support, j)
		}
	}
	n := len(r.Set)
	local := func(i int) int { return i }
	if n > core.MaxChannels {
		for _, j := range support {
			res.Members = append(res.Members, choices[j].Members...)
		}
		slices.Sort(res.Members)
		res.Members = slices.Compact(res.Members)
		if len(res.Members) > 32 {
			return Result{}, fmt.Errorf("schedule: solution support spans %d channels, beyond mask range", len(res.Members))
		}
		n = len(res.Members)
		local = func(i int) int {
			li, _ := slices.BinarySearch(res.Members, i)
			return li
		}
	}

	sched := make(core.Schedule)
	var total float64
	for _, j := range support {
		var mask uint32
		for _, i := range choices[j].Members {
			mask |= 1 << uint(local(i))
		}
		sched[core.Assignment{K: choices[j].K, Mask: mask}] += sol.X[j]
		total += sol.X[j]
	}
	// Renormalize away the dropped residue so the schedule validates.
	for a := range sched {
		sched[a] /= total
	}
	if err := sched.Validate(n); err != nil {
		return Result{}, fmt.Errorf("schedule: solver produced invalid schedule: %w", err)
	}
	res.Schedule = sched
	return res, nil
}

// wrapLPError maps solver errors onto the package's error vocabulary.
func wrapLPError(err error) error {
	if errors.Is(err, lp.ErrInfeasible) {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return fmt.Errorf("schedule: %w", err)
}

// Sampler draws independent assignments from a share schedule via inverse
// transform sampling over the (deterministically ordered) support.
type Sampler struct {
	assignments []core.Assignment
	cumulative  []float64
	rng         *rand.Rand
}

// NewSampler builds a sampler for the schedule. The rng must not be nil and
// must not be shared across goroutines.
func NewSampler(p core.Schedule, n int, rng *rand.Rand) (*Sampler, error) {
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("schedule: nil rng")
	}
	support := p.Support()
	cum := make([]float64, len(support))
	var total float64
	for i, a := range support {
		total += p[a]
		cum[i] = total
	}
	// Guard the final boundary against rounding so Next never falls off the
	// end.
	cum[len(cum)-1] = math.Inf(1)
	return &Sampler{assignments: support, cumulative: cum, rng: rng}, nil
}

// Next draws the next assignment.
func (s *Sampler) Next() core.Assignment {
	u := s.rng.Float64()
	i := sort.SearchFloat64s(s.cumulative, u)
	return s.assignments[i]
}

// Pack is the Figure-2 construction: given each channel's share budget for
// one unit time (slots[i] shares on channel i) and a multiplicity m, it
// greedily assigns each successive source symbol to the m channels with the
// most remaining capacity. It returns one channel mask per symbol.
//
// For integral μ = m this greedy water-filling achieves the optimal symbol
// count ⌊R_C⌋ of Theorem 4 (verified against the closed form in tests).
func Pack(slots []int, m int) ([]uint32, error) {
	if m < 1 || m > len(slots) {
		return nil, fmt.Errorf("schedule: multiplicity %d outside [1, %d]", m, len(slots))
	}
	for i, s := range slots {
		if s < 0 {
			return nil, fmt.Errorf("schedule: negative slot count %d on channel %d", s, i)
		}
	}
	remaining := make([]int, len(slots))
	copy(remaining, slots)
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}

	var packing []uint32
	for {
		// Channels by most remaining capacity; stable on index for
		// determinism.
		sort.SliceStable(order, func(a, b int) bool {
			if remaining[order[a]] != remaining[order[b]] {
				return remaining[order[a]] > remaining[order[b]]
			}
			return order[a] < order[b]
		})
		if remaining[order[m-1]] == 0 {
			return packing, nil // fewer than m channels still have capacity
		}
		var mask uint32
		for _, i := range order[:m] {
			remaining[i]--
			mask |= 1 << uint(i)
		}
		packing = append(packing, mask)
	}
}

// PackUsage tallies how many symbols each channel carries in a packing.
func PackUsage(packing []uint32, n int) []int {
	usage := make([]int, n)
	for _, mask := range packing {
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				usage[i]++
			}
		}
	}
	return usage
}
