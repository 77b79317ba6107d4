// Package lp implements a dense two-phase primal simplex solver for linear
// programs in standard equality form:
//
//	minimize    c·x
//	subject to  A x = b,  x >= 0.
//
// It exists to solve the share-schedule programs of the paper's Sections
// IV-B and IV-D, which are small (tens of variables for n = 5 channels) and
// dense, so a textbook tableau method with Bland's anti-cycling rule is the
// right tool. Inequality constraints can be expressed by the caller with
// explicit slack variables; the schedule programs are naturally equalities.
//
// Two entry points exist. Solve is the one-shot API. Solver retains the
// factored tableau and basis between calls so that a re-solve of a
// perturbed problem (the adaptation path: one channel's (z, l, d, r) moved,
// shifting the objective or the right-hand side) re-enters the simplex from
// the prior optimal basis and converges in a handful of pivots instead of a
// full two-phase run — see Solver.WarmSolve. When only the right-hand side
// moved (a controller probing κ = 1, 2, … on one channel state),
// Solver.Resolve takes the new b alone and restores primal feasibility by
// dual simplex from the retained basis, which stays optimal because C did
// not change. A cold solve of a program shaped like the last one reuses
// the retained tableau buffers.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Solver failure modes.
var (
	// ErrInfeasible means no x >= 0 satisfies A x = b.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded means the objective decreases without bound.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrBadProblem means the problem dimensions are inconsistent.
	ErrBadProblem = errors.New("lp: malformed problem")
	// ErrIterationLimit means the simplex hit its iteration cap. Bland's
	// rule guarantees termination, so this indicates either a logic error
	// or numerical cycling; warm-start debugging distinguishes it from
	// ErrInfeasible by this sentinel. The wrapped message carries the
	// iteration count.
	ErrIterationLimit = errors.New("lp: iteration limit reached")
)

// pivotTolerance distinguishes zero from rounding noise during pivoting.
const pivotTolerance = 1e-9

// feasibilityTolerance bounds the acceptable phase-1 objective for a
// feasible problem.
const feasibilityTolerance = 1e-7

// defaultMaxIterations caps simplex iterations as a defense against bugs.
const defaultMaxIterations = 100000

// Problem is a linear program in standard form: minimize C·x subject to
// A x = B and x >= 0. Every row of A must have len(C) entries.
type Problem struct {
	C []float64
	A [][]float64
	B []float64
}

// Solution is an optimal vertex of the feasible region.
type Solution struct {
	// X is the optimal assignment, len(C) entries.
	X []float64
	// Objective is C·X.
	Objective float64
	// Duals are the simplex multipliers y, one per constraint row: the
	// shadow prices. Duals[i] approximates the change in the optimal
	// objective per unit increase of B[i]. Rows whose right-hand side was
	// negated during normalization have their sign restored, so the duals
	// always refer to the caller's original constraints.
	Duals []float64
}

func (p Problem) validate() error {
	if len(p.A) != len(p.B) {
		return fmt.Errorf("%w: %d constraint rows but %d right-hand sides", ErrBadProblem, len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != len(p.C) {
			return fmt.Errorf("%w: row %d has %d entries, want %d", ErrBadProblem, i, len(row), len(p.C))
		}
	}
	if len(p.C) == 0 {
		return fmt.Errorf("%w: no variables", ErrBadProblem)
	}
	for i, b := range p.B {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("%w: b[%d] = %v", ErrBadProblem, i, b)
		}
	}
	for j, c := range p.C {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: c[%d] = %v", ErrBadProblem, j, c)
		}
	}
	return nil
}

// tableau is the working state of the simplex method: rows of the constraint
// matrix augmented with the right-hand side, plus the current basis. The
// structural columns always include one artificial column per row (columns
// n..n+m-1), kept through phase 2 so that they continuously hold B^{-1} —
// the factorization warm starts and dual extraction both read.
type tableau struct {
	rows  [][]float64 // m x (cols+1); last column is the RHS
	basis []int       // basis[i] = variable index basic in row i
	cols  int         // number of structural columns (excludes RHS)
}

// Solve finds an optimal solution to the problem, or reports infeasibility
// or unboundedness. One-shot form of Solver.Solve.
func Solve(p Problem) (Solution, error) {
	sol, _, err := NewSolver().Solve(p)
	return sol, err
}

// objective evaluates cost over the current basic solution.
func (t *tableau) objective(cost []float64) float64 {
	var obj float64
	for i, v := range t.basis {
		obj += cost[v] * t.rows[i][t.cols]
	}
	return obj
}

// reducedCost computes cost[j] - y·A_j where y are the simplex multipliers
// implied by the basis, using the tableau's current (already pivoted) form:
// in tableau form the reduced cost is cost[j] - Σ_i cost[basis[i]]·rows[i][j].
func (t *tableau) reducedCost(cost []float64, j int) float64 {
	rc := cost[j]
	for i, v := range t.basis {
		if c := cost[v]; c != 0 {
			rc -= c * t.rows[i][j]
		}
	}
	return rc
}

// optimize runs primal simplex iterations with Bland's rule until no column
// among the first allowedCols has a negative reduced cost. It returns the
// number of pivots performed.
func (t *tableau) optimize(cost []float64, allowedCols, maxIter int) (int, error) {
	for iter := 0; iter < maxIter; iter++ {
		// Bland's rule: entering variable is the lowest-index column with a
		// negative reduced cost.
		enter := -1
		for j := 0; j < allowedCols; j++ {
			if t.isBasic(j) {
				continue
			}
			if t.reducedCost(cost, j) < -pivotTolerance {
				enter = j
				break
			}
		}
		if enter == -1 {
			return iter, nil // optimal
		}

		// Ratio test; Bland tie-break on the leaving variable's index.
		leave := -1
		bestRatio := math.Inf(1)
		for i, row := range t.rows {
			if row[enter] > pivotTolerance {
				ratio := row[t.cols] / row[enter]
				if ratio < bestRatio-pivotTolerance ||
					(math.Abs(ratio-bestRatio) <= pivotTolerance && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return iter, ErrUnbounded
		}
		t.pivot(leave, enter)
	}
	return maxIter, fmt.Errorf("%w after %d iterations", ErrIterationLimit, maxIter)
}

// dualSimplex runs dual simplex iterations from a dual-feasible basis (no
// column among the first n has a negative reduced cost under the cost the
// basis is optimal for) until every row's right-hand side is at least
// -feasibilityTolerance. The leaving row is the infeasible row whose basic
// variable has the lowest index; the entering column, among the first n,
// has the minimum ratio of reduced cost to the leaving row's negated
// entry, ties to the lowest index — the dual form of Bland's rule. It
// returns the number of pivots, and false if no column can enter (the
// right-hand side is primal infeasible) or the iteration cap was hit.
func (t *tableau) dualSimplex(cost []float64, n, maxIter int) (int, bool) {
	for iter := 0; iter < maxIter; iter++ {
		leave := -1
		for i, row := range t.rows {
			if row[t.cols] < -feasibilityTolerance && (leave == -1 || t.basis[i] < t.basis[leave]) {
				leave = i
			}
		}
		if leave == -1 {
			return iter, true
		}
		row := t.rows[leave]
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < n; j++ {
			if row[j] >= -pivotTolerance || t.isBasic(j) {
				continue
			}
			if ratio := math.Max(t.reducedCost(cost, j), 0) / -row[j]; ratio < bestRatio {
				bestRatio = ratio
				enter = j
			}
		}
		if enter == -1 {
			return iter, false
		}
		t.pivot(leave, enter)
	}
	return maxIter, false
}

// tiedColumn reports whether a nonbasic column among the first n prices
// at zero under cost (reduced cost within pivotTolerance) and could enter
// the basis with a positive step: pivoting it in would reach another
// vertex with the same objective, so the optimum is not unique.
func (t *tableau) tiedColumn(cost []float64, n int) bool {
	for j := 0; j < n; j++ {
		if t.isBasic(j) || t.reducedCost(cost, j) > pivotTolerance {
			continue
		}
		step := math.Inf(1)
		for _, row := range t.rows {
			if row[j] > pivotTolerance {
				step = math.Min(step, row[t.cols]/row[j])
			}
		}
		if step > feasibilityTolerance {
			return true
		}
	}
	return false
}

func (t *tableau) isBasic(j int) bool {
	for _, v := range t.basis {
		if v == j {
			return true
		}
	}
	return false
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	pivotRow := t.rows[leave]
	pv := pivotRow[enter]
	for j := range pivotRow {
		pivotRow[j] /= pv
	}
	for i, row := range t.rows {
		if i == leave {
			continue
		}
		if f := row[enter]; f != 0 {
			for j := range row {
				row[j] -= f * pivotRow[j]
			}
		}
	}
	t.basis[leave] = enter
}

// expelArtificials pivots artificial variables (columns >= n) out of the
// basis. A basic artificial at level zero whose row has no eligible pivot
// column corresponds to a redundant constraint; the row is left in place
// (it is all zeros across the original columns) and is harmless.
func (t *tableau) expelArtificials(n int) {
	for i, v := range t.basis {
		if v < n {
			continue
		}
		for j := 0; j < n; j++ {
			if math.Abs(t.rows[i][j]) > pivotTolerance {
				t.pivot(i, j)
				break
			}
		}
	}
}
