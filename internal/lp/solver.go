package lp

import (
	"fmt"
	"math"
)

// Tier reports how much prior work a solve was able to reuse. Ordered from
// most to least reuse.
type Tier int

// Solve tiers.
const (
	// TierReuse: the retained tableau was already factored in the prior
	// basis and the constraint data (A, B) was unchanged — only the
	// objective moved, so phase 2 re-ran from the prior optimal vertex.
	TierReuse Tier = iota
	// TierRefresh: A unchanged but B moved; the right-hand side was
	// recomputed through the retained B^{-1}, then phase 2 re-ran
	// (WarmSolve) or dual simplex restored primal feasibility (Resolve).
	TierRefresh
	// TierRefactor: the prior basis was re-pivoted onto a freshly built
	// tableau (A changed or the retained tableau belonged to another
	// basis), then phase 2 re-ran. Still skips phase 1.
	TierRefactor
	// TierCold: full two-phase solve from scratch.
	TierCold
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierReuse:
		return "reuse"
	case TierRefresh:
		return "refresh"
	case TierRefactor:
		return "refactor"
	case TierCold:
		return "cold"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Stats describes the most recent solve on a Solver.
type Stats struct {
	// Pivots counts simplex pivots across both phases of the solve, and
	// Resolve's dual pivots.
	Pivots int
	// Tier is the reuse level the solve achieved.
	Tier Tier
}

// Basis is an opaque snapshot of the optimal basis of a solved problem,
// returned by Solver.Solve and Solver.WarmSolve and accepted by WarmSolve
// as the starting point for a perturbed re-solve.
type Basis struct {
	vars []int
	n, m int
}

// Solver runs the two-phase simplex method while retaining the factored
// tableau and basis between calls, so that re-solving a perturbed problem
// can skip phase 1 (and, when only the objective moved, skip factorization
// entirely). A Solver is not safe for concurrent use; its retained state is
// exactly one factorization.
type Solver struct {
	t     tableau
	signs []float64
	c     []float64   // C the tableau was last optimized for (copy)
	a     [][]float64 // A at factorization time (deep copy)
	b     []float64   // B at factorization time
	cost  []float64   // phase cost scratch, len n+m
	n, m  int
	valid bool

	maxIter int // simplex iteration cap; test hook, 0 = defaultMaxIterations
	stats   Stats
}

// NewSolver returns an empty solver with no retained factorization.
func NewSolver() *Solver {
	return &Solver{}
}

// LastStats reports the pivot count and reuse tier of the most recent
// (Warm)Solve call.
func (s *Solver) LastStats() Stats { return s.stats }

func (s *Solver) iterationCap() int {
	if s.maxIter > 0 {
		return s.maxIter
	}
	return defaultMaxIterations
}

// Solve runs a full two-phase solve and retains the resulting factorization
// for later warm starts. The returned Basis snapshots the optimal basis.
func (s *Solver) Solve(p Problem) (Solution, *Basis, error) {
	if err := p.validate(); err != nil {
		return Solution{}, nil, err
	}
	return s.cold(p)
}

// WarmSolve re-solves a problem starting from the basis of a previous solve.
// It picks the cheapest applicable tier: if the constraint matrix is
// unchanged since the retained factorization it reuses the tableau directly
// (recomputing the right-hand side through the retained B^{-1} when B
// moved); otherwise it re-pivots the prior basis onto a fresh tableau; and
// whenever the prior basis is unusable — shape change, singular basis,
// primal infeasible at the new B — it falls back to a cold two-phase solve.
// A nil prev is equivalent to Solve.
func (s *Solver) WarmSolve(prev *Basis, p Problem) (Solution, *Basis, error) {
	if err := p.validate(); err != nil {
		return Solution{}, nil, err
	}
	n, m := len(p.C), len(p.A)
	if prev == nil || prev.n != n || prev.m != m {
		return s.cold(p)
	}

	if s.valid && s.n == n && s.m == m && matEqual(s.a, p.A) && intsEqual(prev.vars, s.t.basis) {
		tier := TierReuse
		if !floatsEqual(s.b, p.B) {
			if !s.refreshRHS(p.B) {
				return s.cold(p) // prior basis primal infeasible at new B
			}
			tier = TierRefresh
		}
		return s.phase2(p, tier)
	}

	if sol, basis, err, ok := s.refactor(prev, p); ok {
		return sol, basis, err
	}
	return s.cold(p)
}

// Resolve re-solves the retained program at a new right-hand side b: the
// C and A of the last Solve or WarmSolve, whose optimal basis is still
// dual feasible because C did not change. It writes b through the retained
// B^{-1} and runs dual simplex until the basis is primal feasible, which
// is then optimal: the leaving row is the infeasible row whose basic
// variable has the lowest index, the entering column the minimum ratio,
// ties to the lowest index. It falls back to a cold solve of the retained
// C and A at b, which is also what reports ErrInfeasible, when no column
// can enter, when a redundant row (basic artificial) would need a nonzero
// level, when no program is retained, and when the dual pivots end at a
// tied optimum (a zero-priced column could enter with a positive step):
// several vertices are then optimal, and the cold solve decides which one
// is returned, as it would have without Resolve. The dual pivots count in
// Stats.Pivots and the tier is TierRefresh, or TierCold on fallback.
func (s *Solver) Resolve(b []float64) (Solution, *Basis, error) {
	// p aliases the retained C and A; a cold fallback's factor copies them
	// onto themselves, which the unchanged shape makes a no-op.
	p := Problem{C: s.c, A: s.a, B: b}
	if err := p.validate(); err != nil {
		return Solution{}, nil, err
	}
	if !s.valid {
		return s.cold(p)
	}
	n, cols := s.n, s.t.cols
	for i, v := range s.rhsFor(b) {
		if s.t.basis[i] >= n && math.Abs(v) > feasibilityTolerance {
			return s.cold(p) // inconsistent redundant row
		}
		s.t.rows[i][cols] = v
	}
	copy(s.cost, s.c)
	clear(s.cost[n:])
	pivots, ok := s.t.dualSimplex(s.cost, n, s.iterationCap())
	if !ok || (pivots > 0 && s.t.tiedColumn(s.cost, n)) {
		return s.cold(p)
	}
	for _, row := range s.t.rows {
		if row[cols] < 0 {
			row[cols] = 0
		}
	}
	copy(s.b, b)
	sol, basis, err := s.phase2(p, TierRefresh)
	s.stats.Pivots += pivots
	return sol, basis, err
}

// cold performs the full two-phase solve, replacing the retained state.
func (s *Solver) cold(p Problem) (Solution, *Basis, error) {
	n := len(p.C)
	s.factor(p)

	// Phase 1: minimize the sum of artificial variables.
	phase1Cost := s.cost
	clear(phase1Cost[:n])
	for j := n; j < s.t.cols; j++ {
		phase1Cost[j] = 1
	}
	pivots, err := s.t.optimize(phase1Cost, s.t.cols, s.iterationCap())
	if err != nil {
		// Phase 1 is bounded below by zero, so unboundedness here is a bug.
		s.valid = false
		return Solution{}, nil, fmt.Errorf("phase 1: %w", err)
	}
	if obj := s.t.objective(phase1Cost); obj > feasibilityTolerance {
		s.valid = false
		return Solution{}, nil, fmt.Errorf("%w: phase-1 objective %g", ErrInfeasible, obj)
	}

	// Drive any remaining artificial variables out of the basis; rows where
	// that is impossible are redundant constraints and are harmless.
	s.t.expelArtificials(n)

	sol, basis, err := s.phase2(p, TierCold)
	s.stats.Pivots += pivots // fold phase-1 pivots into the solve's total
	return sol, basis, err
}

// factor builds the initial normalized tableau (original columns, one
// artificial per row, b >= 0 enforced by row negation) and records copies
// of C, A and B for Resolve and later change detection. The buffers of the
// previous factorization are reused when the shape (n, m) is unchanged.
func (s *Solver) factor(p Problem) {
	n := len(p.C)
	m := len(p.A)
	if len(s.c) != n || len(s.t.rows) != m {
		s.t = tableau{rows: make([][]float64, m), basis: make([]int, m)}
		for i := range s.t.rows {
			s.t.rows[i] = make([]float64, n+m+1)
		}
		s.signs = make([]float64, m)
		s.c = make([]float64, n)
		s.a = make([][]float64, m)
		for i := range s.a {
			s.a[i] = make([]float64, n)
		}
		s.b = make([]float64, m)
		s.cost = make([]float64, n+m)
	}
	s.t.cols = n + m
	copy(s.c, p.C)
	for i := 0; i < m; i++ {
		row := s.t.rows[i]
		clear(row)
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		s.signs[i] = sign
		for j := 0; j < n; j++ {
			row[j] = sign * p.A[i][j]
		}
		row[n+i] = 1
		row[s.t.cols] = sign * p.B[i]
		s.t.basis[i] = n + i

		copy(s.a[i], p.A[i])
		s.b[i] = p.B[i]
	}
	s.n, s.m = n, m
	s.valid = true
}

// refreshRHS recomputes the tableau's right-hand side for a new B through
// the retained B^{-1} (held in the artificial columns n..n+m-1). It reports
// false — leaving the tableau unusable for warm continuation — if the prior
// basis is primal infeasible at the new B, or if a redundant row (basic
// artificial) would need a nonzero level, which makes the new system
// inconsistent under the retained basis.
func (s *Solver) refreshRHS(bNew []float64) bool {
	rhs := s.rhsFor(bNew)
	for i, v := range rhs {
		if v < -feasibilityTolerance {
			return false
		}
		if s.t.basis[i] >= s.n && v > feasibilityTolerance {
			return false
		}
		if v < 0 {
			rhs[i] = 0
		}
	}
	for i := range s.t.rows {
		s.t.rows[i][s.t.cols] = rhs[i]
	}
	copy(s.b, bNew)
	return true
}

// rhsFor computes the basic solution B^{-1} b of the retained basis at a
// new right-hand side, through the artificial columns n..n+m-1.
func (s *Solver) rhsFor(bNew []float64) []float64 {
	n, m := s.n, s.m
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		var v float64
		for j := 0; j < m; j++ {
			if c := s.t.rows[i][n+j]; c != 0 {
				v += c * s.signs[j] * bNew[j]
			}
		}
		rhs[i] = v
	}
	return rhs
}

// refactor rebuilds a fresh tableau for p and pivots the prior basis into
// it, skipping phase 1. The final bool reports whether the basis was usable
// (nonsingular and primal feasible at p.B); when false the caller should
// fall back to a cold solve and the other return values are meaningless.
func (s *Solver) refactor(prev *Basis, p Problem) (Solution, *Basis, error, bool) {
	s.factor(p)
	n := s.n
	for i, v := range prev.vars {
		if v >= n || v < 0 {
			continue // artificial stays basic in this row (redundant row)
		}
		if s.t.isBasic(v) {
			continue // duplicate entry in a degenerate basis; keep first
		}
		if math.Abs(s.t.rows[i][v]) <= pivotTolerance {
			s.valid = false
			return Solution{}, nil, nil, false // singular basis for this A
		}
		s.t.pivot(i, v)
	}
	for i, row := range s.t.rows {
		rhs := row[s.t.cols]
		if rhs < -feasibilityTolerance {
			s.valid = false
			return Solution{}, nil, nil, false // primal infeasible
		}
		if s.t.basis[i] >= n && rhs > feasibilityTolerance {
			s.valid = false
			return Solution{}, nil, nil, false // inconsistent redundant row
		}
		if rhs < 0 {
			row[s.t.cols] = 0
		}
	}
	sol, basis, err := s.phase2(p, TierRefactor)
	return sol, basis, err, true
}

// phase2 minimizes the real objective over the original columns from the
// tableau's current basis, then extracts the solution, duals, and a basis
// snapshot. It records the solve stats for the given tier.
func (s *Solver) phase2(p Problem, tier Tier) (Solution, *Basis, error) {
	n, m := s.n, s.m
	// Record the cost the tableau is now optimized for: WarmSolve's reuse
	// and refresh tiers change C without refactoring, and Resolve continues
	// under s.c. (On Resolve, p.C aliases s.c.)
	copy(s.c, p.C)
	phase2Cost := s.cost
	copy(phase2Cost, p.C)
	clear(phase2Cost[n:])
	pivots, err := s.t.optimize(phase2Cost, n, s.iterationCap())
	s.stats = Stats{Pivots: pivots, Tier: tier}
	if err != nil {
		s.valid = false
		return Solution{}, nil, err
	}

	x := make([]float64, n)
	for i, v := range s.t.basis {
		if v < n {
			x[v] = s.t.rows[i][s.t.cols]
		}
	}
	var obj float64
	for j := range x {
		obj += p.C[j] * x[j]
	}

	// Duals from the artificial columns: column n+i of the tableau holds
	// B^{-1} e_i, so y_i = c_B · rows[·][n+i]. Undo the row normalization
	// signs so duals refer to the caller's constraints.
	duals := make([]float64, m)
	for i := 0; i < m; i++ {
		var y float64
		for r, v := range s.t.basis {
			if v < n && phase2Cost[v] != 0 {
				y += phase2Cost[v] * s.t.rows[r][n+i]
			}
		}
		duals[i] = s.signs[i] * y
	}

	basis := &Basis{vars: append([]int(nil), s.t.basis...), n: n, m: m}
	return Solution{X: x, Objective: obj, Duals: duals}, basis, nil
}

func matEqual(a [][]float64, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !floatsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
