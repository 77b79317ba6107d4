package schedule

import (
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
	"remicss/internal/lp"
)

func randomSet(rng *rand.Rand, n int) core.Set {
	s := make(core.Set, n)
	for i := range s {
		s[i] = core.Channel{
			Risk:  0.05 + 0.9*rng.Float64(),
			Loss:  rng.Float64() * 0.3,
			Delay: time.Duration(1+rng.Intn(100)) * time.Millisecond,
			Rate:  10 + 90*rng.Float64(),
		}
	}
	return s
}

// TestGeneratedWithinBoundOfExhaustive is the documented error bound of
// DESIGN §11: where exhaustive enumeration is computable (n <= 10), the
// LP optimum over the generated candidate set must be within 10% (or an
// absolute 1e-6) of the exhaustive optimum, for every objective.
func TestGeneratedWithinBoundOfExhaustive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(3)
		s := randomSet(rng, n)
		kappa, mu := 2+rng.Float64(), 3+rng.Float64()
		for _, limited := range []bool{false, true} {
			for _, obj := range []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay} {
				exact, err := solveSchedule(Request{Set: s, Kappa: kappa, Mu: mu, Obj: obj, Limited: limited})
				if err != nil {
					t.Fatalf("seed %d: exhaustive: %v", seed, err)
				}
				req := Request{Set: s, Kappa: kappa, Mu: mu, Obj: obj, Limited: limited}
				res, err := solveWith(req, core.GenerateChoices(s, kappa, mu, limited))
				gen := res.Schedule
				if err != nil {
					t.Fatalf("seed %d: generated: %v", seed, err)
				}
				exactVal := objectiveValue(exact, s, obj)
				genVal := objectiveValue(gen, s, obj)
				if genVal > exactVal*1.10+1e-6 {
					t.Errorf("seed %d n=%d limited=%v obj %v: generated %.6g vs exhaustive %.6g exceeds 10%% bound",
						seed, n, limited, obj, genVal, exactVal)
				}
				if genVal < exactVal-1e-9 {
					t.Errorf("seed %d obj %v: generated %.6g beat exhaustive %.6g — enumeration bug",
						seed, obj, genVal, exactVal)
				}
			}
		}
	}
}

func objectiveValue(p core.Schedule, s core.Set, obj Objective) float64 {
	switch obj {
	case ObjectiveRisk:
		return p.Risk(s, core.Correlation{})
	case ObjectiveLoss:
		return p.Loss(s, core.Correlation{})
	default:
		return p.Delay(s)
	}
}

// TestEnumerateRoutesToGeneration: sets beyond exactEnumerationLimit must
// transparently use generation inside Solve and still produce a valid
// schedule meeting the parameter constraints.
func TestEnumerateRoutesToGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSet(rng, exactEnumerationLimit+4)
	sched, err := solveSchedule(Request{Set: s, Kappa: 2.5, Mu: 3.5, Obj: ObjectiveRisk, Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(s.N()); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sched.Kappa(), 2.5, 1e-6) || !almostEqual(sched.Mu(), 3.5, 1e-6) {
		t.Fatalf("kappa=%v mu=%v, want 2.5/3.5", sched.Kappa(), sched.Mu())
	}
}

// TestOptimizeLargeHundredsOfChannels is the scale acceptance criterion:
// Solve over n = 200 channels must produce a valid compacted schedule in
// under a second.
func TestOptimizeLargeHundredsOfChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSet(rng, 200)
	kappa, mu := 2.5, 3.5

	start := time.Now()
	res, err := Solve(Request{Set: s, Kappa: kappa, Mu: mu, Obj: ObjectiveRisk, Limited: true})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Fatalf("Solve for n=200 took %v, budget 1s", elapsed)
	}
	sched, members := res.Schedule, res.Members
	if err := sched.Validate(len(members)); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sched.Kappa(), kappa, 1e-6) || !almostEqual(sched.Mu(), mu, 1e-6) {
		t.Fatalf("kappa=%v mu=%v, want %v/%v", sched.Kappa(), sched.Mu(), kappa, mu)
	}
	// The compacted members must be valid, ascending original indices.
	prev := -1
	for _, i := range members {
		if i <= prev || i >= 200 {
			t.Fatalf("bad member list %v", members)
		}
		prev = i
	}
	// The compacted schedule's metrics over the sub-set must be coherent:
	// risk evaluated on the compacted set equals the risk of the same
	// assignments on the full set.
	sub := make(core.Set, len(members))
	for li, i := range members {
		sub[li] = s[i]
	}
	if r := sched.Risk(sub, core.Correlation{}); r < 0 || r > 1 {
		t.Fatalf("compacted schedule risk %v outside [0,1]", r)
	}
}

// TestCompactedScheduleMatchesProgramOptimum: beyond the mask range the
// optimum is compacted onto its support; the compacted schedule's loss
// over the member channels must equal the optimum of the program itself.
func TestCompactedScheduleMatchesProgramOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomSet(rng, 30)
	req := Request{Set: s, Kappa: 2.2, Mu: 3.4, Obj: ObjectiveLoss, Limited: true}

	res, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Members == nil {
		t.Fatal("30-channel result not compacted")
	}
	prob, err := req.Program()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	sub := make(core.Set, len(res.Members))
	for li, i := range res.Members {
		sub[li] = s[i]
	}
	if got := res.Schedule.Loss(sub, core.Correlation{}); !almostEqual(got, sol.Objective, 1e-9) {
		t.Fatalf("compacted schedule loss %v != program optimum %v", got, sol.Objective)
	}
}

func BenchmarkSolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := randomSet(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(Request{Set: s, Kappa: 2.5, Mu: 3.5, Obj: ObjectiveRisk, Limited: true}); err != nil {
			b.Fatal(err)
		}
	}
}
