package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The differential oracle: small programs in standard form solved by
// enumerating every basis. With integer A and right-hand sides in quarter
// units every basic solution is a rational with a small denominator, so a
// vertex is either feasible or infeasible by a wide margin and the solver
// tolerances never decide the verdict.

// gauss solves the square system m x = rhs by Gaussian elimination with
// partial pivoting, reporting false when m is singular. It works on copies.
func gauss(m [][]float64, rhs []float64) ([]float64, bool) {
	k := len(m)
	a := make([][]float64, k)
	for i := range m {
		a[i] = append(append([]float64(nil), m[i]...), rhs[i])
	}
	for col := 0; col < k; col++ {
		p := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-9 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= k; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, k)
	for i := range x {
		x[i] = a[i][k] / a[i][i]
	}
	return x, true
}

// rowRank returns the indices of a maximal linearly independent subset of
// the rows of a, greedily in order.
func rowRank(a [][]float64) []int {
	var basis [][]float64 // reduced independent rows
	var keep []int
	for i, row := range a {
		v := append([]float64(nil), row...)
		for _, b := range basis {
			p := 0
			for math.Abs(b[p]) < 1e-9 {
				p++
			}
			f := v[p] / b[p]
			for j := range v {
				v[j] -= f * b[j]
			}
		}
		if maxAbs(v) > 1e-9 {
			basis = append(basis, v)
			keep = append(keep, i)
		}
	}
	return keep
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// vertexMin minimizes p.C·x over A x = B, x >= 0 by enumerating every basis
// of the independent rows. feasible is false when no basic solution is
// nonnegative or B is inconsistent with the dependent rows. The programs
// it is given are bounded, so the minimum is attained at a vertex.
func vertexMin(p Problem) (best float64, feasible bool) {
	rows := rowRank(p.A)
	aug := make([][]float64, len(p.A))
	for i := range p.A {
		aug[i] = append(append([]float64(nil), p.A[i]...), p.B[i])
	}
	if len(rowRank(aug)) > len(rows) {
		return 0, false // B is not in the column space of A
	}
	n, k := len(p.C), len(rows)
	best = math.Inf(1)
	cols := make([]int, k)
	var walk func(depth, from int)
	walk = func(depth, from int) {
		if depth == k {
			m := make([][]float64, k)
			rhs := make([]float64, k)
			for r, i := range rows {
				m[r] = make([]float64, k)
				for c, j := range cols {
					m[r][c] = p.A[i][j]
				}
				rhs[r] = p.B[i]
			}
			x, ok := gauss(m, rhs)
			if !ok {
				return
			}
			var obj float64
			for c, j := range cols {
				if x[c] < -1e-9 {
					return
				}
				obj += p.C[j] * x[c]
			}
			best = math.Min(best, obj)
			feasible = true
			return
		}
		for j := from; j < n; j++ {
			cols[depth] = j
			walk(depth+1, j+1)
		}
	}
	walk(0, 0)
	return best, feasible
}

// checkAgainst asserts that a solver's answer for p agrees with the vertex
// enumeration: ErrInfeasible exactly when no vertex is feasible, otherwise
// a feasible x with the enumerated optimal objective.
func checkAgainst(t *testing.T, label string, p Problem, sol Solution, err error) {
	t.Helper()
	want, feasible := vertexMin(p)
	if !feasible {
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible (A=%v B=%v)", label, err, p.A, p.B)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v, want objective %v (A=%v B=%v)", label, err, want, p.A, p.B)
	}
	if !almostEqual(sol.Objective, want, 1e-7*(1+math.Abs(want))) {
		t.Fatalf("%s: objective %v, vertex enumeration %v (A=%v B=%v C=%v)", label, sol.Objective, want, p.A, p.B, p.C)
	}
	for j, x := range sol.X {
		if x < -1e-9 {
			t.Fatalf("%s: x[%d] = %v", label, j, x)
		}
	}
	for i, row := range p.A {
		var dot float64
		for j := range row {
			dot += row[j] * sol.X[j]
		}
		if !almostEqual(dot, p.B[i], 1e-7) {
			t.Fatalf("%s: row %d: A x = %v, b = %v", label, i, dot, p.B[i])
		}
	}
}

// smallProgram draws an integer program of n variables and m rows whose
// first row is all ones (so Σx = B[0] bounds the feasible set); with
// redundant set, its last row is the sum of the first two.
func smallProgram(rng *rand.Rand, n, m int, redundant bool) Problem {
	p := Problem{C: drawCosts(rng, n), A: make([][]float64, m), B: make([]float64, m)}
	for i := range p.A {
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			if i == 0 {
				p.A[i][j] = 1
			} else {
				p.A[i][j] = float64(rng.Intn(6) - 2)
			}
		}
	}
	if redundant && m >= 3 {
		for j := 0; j < n; j++ {
			p.A[m-1][j] = p.A[0][j] + p.A[1][j]
		}
	}
	return p
}

// drawCosts draws n integer costs in [-3, 3].
func drawCosts(rng *rand.Rand, n int) []float64 {
	c := make([]float64, n)
	for j := range c {
		c[j] = float64(rng.Intn(7) - 3)
	}
	return c
}

// nextRHS draws a right-hand side for p: A x0 for a nonnegative x0 in
// quarter units with full support (feasible), with fewer positive entries
// than rows (degenerate), or quarter units at random (often infeasible,
// and inconsistent with a redundant row).
func nextRHS(rng *rand.Rand, p Problem) []float64 {
	n, m := len(p.C), len(p.A)
	b := make([]float64, m)
	switch rng.Intn(4) {
	case 0, 1:
		x0 := make([]float64, n)
		support := n
		if rng.Intn(2) == 0 {
			support = rng.Intn(m) // degenerate: fewer positive entries than rows
		}
		for k := 0; k < support; k++ {
			x0[rng.Intn(n)] = float64(1+rng.Intn(8)) / 4
		}
		for i := range b {
			for j := range x0 {
				b[i] += p.A[i][j] * x0[j]
			}
		}
	case 2:
		for i := range b {
			b[i] = float64(rng.Intn(25)-8) / 4
		}
	case 3:
		// A feasible point's B with Σx forced negative: infeasible.
		for i := range b {
			b[i] = float64(rng.Intn(9)) / 4
		}
		b[0] = -float64(1+rng.Intn(4)) / 4
	}
	return b
}

// TestSolversAgainstVertexEnumeration is the LP's differential oracle:
// random small programs, each carried through a chain of right-hand-side
// moves (feasible, degenerate, infeasible, inconsistent with a redundant
// row), solved by Solve, by WarmSolve from the last basis and by Resolve,
// and checked against exhaustive vertex enumeration. Some steps also draw
// new costs; the Resolve chain then takes them through WarmSolve, so the
// next Resolve must continue under the costs WarmSolve last optimized.
func TestSolversAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	resolves, dual, afterNewCost := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		n, m := 2+rng.Intn(5), 1+rng.Intn(3)
		p := smallProgram(rng, n, m, rng.Intn(4) == 0)
		warm, res := NewSolver(), NewSolver()
		var basis, resBasis *Basis
		newCost := false
		for step := 0; step < 8; step++ {
			costMoved := step > 0 && rng.Intn(3) == 0
			if costMoved {
				p.C = drawCosts(rng, n)
			}
			if !costMoved || rng.Intn(2) == 0 {
				p.B = nextRHS(rng, p)
			}
			sol, err := Solve(p)
			checkAgainst(t, "Solve", p, sol, err)

			sol, next, err := warm.WarmSolve(basis, p)
			checkAgainst(t, "WarmSolve", p, sol, err)
			basis = next

			if step == 0 || costMoved {
				sol, resBasis, err = res.WarmSolve(resBasis, p)
				checkAgainst(t, "WarmSolve (Resolve's chain)", p, sol, err)
				newCost = step > 0 && err == nil && res.LastStats().Tier <= TierRefresh
				continue
			}
			sol, resBasis, err = res.Resolve(append([]float64(nil), p.B...))
			checkAgainst(t, "Resolve", p, sol, err)
			resolves++
			if newCost {
				afterNewCost++
				newCost = false
			}
			if st := res.LastStats(); st.Tier == TierRefresh && st.Pivots > 0 {
				dual++
			}
		}
	}
	if dual == 0 {
		t.Fatalf("no Resolve of %d took a dual pivot", resolves)
	}
	if afterNewCost == 0 {
		t.Fatalf("no Resolve of %d followed a warm re-solve under new costs", resolves)
	}
}

// TestResolveAfterWarmCostChange: a WarmSolve that only moves C re-runs
// phase 2 on the retained tableau, and the Resolve after it must continue
// under the new C, as a cold solve of the new C at the new b does.
func TestResolveAfterWarmCostChange(t *testing.T) {
	// x0 + x1 + x2 = 1, x1 + 2 x2 = β.
	p := Problem{
		C: []float64{0, 1, 3},
		A: [][]float64{{1, 1, 1}, {0, 1, 2}},
		B: []float64{1, 0.5},
	}
	s := NewSolver()
	_, basis, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	p.C = []float64{0, 3, 1}
	if _, _, err := s.WarmSolve(basis, p); err != nil {
		t.Fatal(err)
	} else if st := s.LastStats(); st.Tier != TierReuse {
		t.Fatalf("WarmSolve with only C moved: tier %v, want reuse", st.Tier)
	}
	p.B = []float64{1, 1.5}
	got, _, err := s.Resolve(append([]float64(nil), p.B...))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Objective, want.Objective, 1e-12) {
		t.Fatalf("Resolve after a cost change: objective %v (x = %v), cold solve of the new C %v (x = %v)",
			got.Objective, got.X, want.Objective, want.X)
	}
}

// TestResolveTiersAndFallbacks pins what Resolve reports on each path:
// dual pivots counted under TierRefresh, a cold fallback (and
// ErrInfeasible) when no column can enter, and a cold solve when no
// program is retained.
func TestResolveTiersAndFallbacks(t *testing.T) {
	// min x1 + 3 x2 s.t. x0 + x1 + x2 = 1, x1 + 2 x2 = β.
	p := Problem{
		C: []float64{0, 1, 3},
		A: [][]float64{{1, 1, 1}, {0, 1, 2}},
		B: []float64{1, 0.5},
	}
	s := NewSolver()
	if _, _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	// β = 1.5 leaves the basis {x0, x1} infeasible (x0 = -0.5): one dual
	// pivot brings x2 in.
	sol, _, err := s.Resolve([]float64{1, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.LastStats(); st.Tier != TierRefresh || st.Pivots == 0 {
		t.Fatalf("stats = %+v, want refresh with dual pivots", st)
	}
	if !almostEqual(sol.Objective, 2, 1e-12) || !almostEqual(sol.X[1], 0.5, 1e-12) || !almostEqual(sol.X[2], 0.5, 1e-12) {
		t.Fatalf("solution %+v, want x = (0, 0.5, 0.5), objective 2", sol)
	}

	// β = 3 is beyond every column's reach: no column can enter, so the
	// cold fallback reports infeasibility.
	if _, _, err := s.Resolve([]float64{1, 3}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// The retained C and A survive the failed solve.
	if _, _, err := s.Resolve([]float64{1, 0.5}); err != nil {
		t.Fatal(err)
	} else if st := s.LastStats(); st.Tier != TierCold {
		t.Fatalf("after a failed solve tier = %v, want cold", st.Tier)
	}

	if _, _, err := NewSolver().Resolve([]float64{1}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("Resolve with no retained program: err = %v, want ErrBadProblem", err)
	}
	if _, _, err := s.Resolve([]float64{1}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("Resolve with the wrong row count: err = %v, want ErrBadProblem", err)
	}
}

// TestResolveRedundantRowInconsistent: a right-hand side that breaks a
// redundant row's dependence cannot be written through the retained basis
// (its artificial would need a nonzero level); the cold fallback reports
// infeasibility, and a consistent move afterwards solves again.
func TestResolveRedundantRowInconsistent(t *testing.T) {
	p := Problem{
		C: []float64{0, 1, 3},
		A: [][]float64{{1, 1, 1}, {0, 1, 2}, {1, 2, 3}},
		B: []float64{1, 0.5, 1.5},
	}
	s := NewSolver()
	if _, _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Resolve([]float64{1, 0.5, 2}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	sol, _, err := s.Resolve([]float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Objective, 1, 1e-12) {
		t.Fatalf("objective %v, want 1", sol.Objective)
	}
}

// TestColdSolveReusesBuffers pins the tableau-buffer reuse: a cold solve of
// a program the shape of the last one allocates only what it returns (x,
// the duals and the basis snapshot), whatever the row count.
func TestColdSolveReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := scheduleLikeProblem(rng, 80, 2.5, 3.5)
	s := NewSolver()
	if _, _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a same-shape cold solve allocates %v times, want at most 4", allocs)
	}
}

// FuzzResolveMatchesCold decodes a small integer program and a chain of up
// to 16 steps, each a right-hand side in quarter units re-solved with
// Resolve or, when its leading byte says so, new costs re-solved with
// WarmSolve. Each answer is checked against a fresh cold Solve: the same
// error class, and when both succeed the same objective and a feasible x.
func FuzzResolveMatchesCold(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, 3, 1, 1, 1, 0, 1, 2, 4, 2, 4, 6, 4, 12, 4, 0})
	f.Add([]byte{4, 3, 250, 3, 1, 0, 1, 1, 1, 1, 2, 0, 1, 5, 4, 3, 2, 1, 4, 4, 4, 8, 8, 8, 1, 9, 0})
	f.Add([]byte{2, 1, 5, 5, 1, 1, 4, 8, 0, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := 2+int(data[0])%5, 1+int(data[1])%3
		data = data[2:]
		if len(data) < n+m*n+m {
			return
		}
		p := Problem{C: make([]float64, n), A: make([][]float64, m)}
		for j := range p.C {
			p.C[j] = float64(int(data[j])%7 - 3)
		}
		data = data[n:]
		for i := range p.A {
			p.A[i] = make([]float64, n)
			for j := range p.A[i] {
				p.A[i][j] = float64(int(data[j])%6 - 2)
			}
			data = data[n:]
		}
		rhs := func() []float64 {
			b := make([]float64, m)
			for i := range b {
				b[i] = float64(int(data[i])%25-8) / 4
			}
			data = data[m:]
			return b
		}
		p.B = rhs()
		s := NewSolver()
		_, basis, err := s.Solve(p)
		if err != nil {
			return // Resolve continues only from an optimal program
		}
		for step := 0; step < 16 && len(data) > m; step++ {
			var got Solution
			var gerr error
			ctrl := data[0]
			data = data[1:]
			if ctrl%4 == 0 && len(data) >= n {
				p.C = make([]float64, n)
				for j := range p.C {
					p.C[j] = float64(int(data[j])%7 - 3)
				}
				data = data[n:]
				got, basis, gerr = s.WarmSolve(basis, p)
			} else {
				p.B = rhs()
				got, basis, gerr = s.Resolve(append([]float64(nil), p.B...))
			}
			want, werr := Solve(p)
			for _, sentinel := range []error{ErrInfeasible, ErrUnbounded, ErrIterationLimit} {
				if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
					t.Fatalf("step %d: err %v, cold err %v (A=%v B=%v C=%v)", step, gerr, werr, p.A, p.B, p.C)
				}
			}
			if gerr != nil || werr != nil {
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d: err %v, cold err %v", step, gerr, werr)
				}
				continue
			}
			if !almostEqual(got.Objective, want.Objective, 1e-7*(1+math.Abs(want.Objective))) {
				t.Fatalf("step %d: objective %v, cold %v (A=%v B=%v C=%v)", step, got.Objective, want.Objective, p.A, p.B, p.C)
			}
			for i, row := range p.A {
				var dot float64
				for j := range row {
					dot += row[j] * got.X[j]
				}
				if !almostEqual(dot, p.B[i], 1e-7) {
					t.Fatalf("step %d: row %d: A x = %v, b = %v", step, i, dot, p.B[i])
				}
			}
			for j, x := range got.X {
				if x < -1e-9 {
					t.Fatalf("step %d: x[%d] = %v", step, j, x)
				}
			}
		}
	})
}
