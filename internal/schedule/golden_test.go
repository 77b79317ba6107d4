package schedule

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
)

// The golden test pins the float64 bits of everything the model and the
// programs produce — schedules, their risk, loss and delay, and the κ/μ
// shadow prices — over 5-, 20- and 40-channel sets, every objective,
// MaxRate and Limited on and off, no model and a two-group model, a κ/μ
// grid, cached and uncached. A refactor of the model or of the program
// builder that changes any column, coefficient or row order changes a hash.

// goldenSet draws a deterministic n-channel set.
func goldenSet(n int) core.Set {
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	s := make(core.Set, n)
	for i := range s {
		s[i] = core.Channel{
			Risk:  0.02 + 0.45*rng.Float64(),
			Loss:  0.001 + 0.09*rng.Float64(),
			Delay: time.Duration(1+rng.Intn(50)) * time.Millisecond,
			Rate:  50 + 950*rng.Float64(),
		}
	}
	return s
}

// goldenModel is a two-group correlation model over channels 0–1 and 2–3.
func goldenModel() core.Correlation {
	return core.Correlation{Groups: []core.RiskGroup{
		{Mask: 0b0011, RiskRho: 0.6, LossRho: 0.3},
		{Mask: 0b1100, RiskRho: 0.9, LossRho: 0.5},
	}}
}

type goldenCase struct {
	n    int
	grid [][2]float64
}

var goldenCases = []goldenCase{
	{5, [][2]float64{{1, 1}, {1.5, 2.5}, {2, 3}, {2.7, 4.2}, {3, 5}}},
	{20, [][2]float64{{1.5, 2.5}, {2, 3.4}}},
	{40, [][2]float64{{1.5, 2.5}, {2, 3.4}}},
}

var goldenObjectives = []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay}

func putF(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func putI(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// putResult hashes a schedule (or the error), its member mapping, and its
// risk, loss and delay under corr over the set it indexes.
func putResult(h hash.Hash, s core.Set, corr core.Correlation, sched core.Schedule, members []int, err error) {
	if err != nil {
		fmt.Fprintf(h, "err:%v;", err)
		return
	}
	for _, a := range sched.Support() {
		putI(h, a.K)
		putI(h, int(a.Mask))
		putF(h, sched[a])
	}
	for _, i := range members {
		putI(h, i)
	}
	if members != nil {
		sub := make(core.Set, len(members))
		for li, i := range members {
			sub[li] = s[i]
		}
		s = sub
	}
	putF(h, sched.Risk(s, corr))
	putF(h, sched.Loss(s, corr))
	putF(h, sched.Delay(s))
}

// goldenUncached hashes every one-shot solve of one case.
func goldenUncached(t *testing.T, c goldenCase) string {
	h := sha256.New()
	s := goldenSet(c.n)
	for _, limited := range []bool{false, true} {
		for _, obj := range goldenObjectives {
			for _, km := range c.grid {
				kappa, mu := km[0], km[1]
				req := Request{Set: s, Kappa: kappa, Mu: mu, Obj: obj, Limited: limited}
				if c.n > 22 {
					res, err := Solve(req)
					putResult(h, s, core.Correlation{}, res.Schedule, res.Members, err)
					continue
				}
				for _, m := range []struct {
					corr core.Correlation
					cap  float64
				}{{core.Correlation{}, 0}, {goldenModel(), 0}, {goldenModel(), 0.02}} {
					req.Corr, req.GroupExposureCap, req.MaxRate = m.corr, m.cap, false
					res, err := Solve(req)
					putResult(h, s, m.corr, res.Schedule, nil, err)
					if err != nil {
						fmt.Fprintf(h, "err:%v;", err)
					} else {
						putF(h, res.DKappa)
						putF(h, res.DMu)
					}
					req.MaxRate = true
					res, err = Solve(req)
					putResult(h, s, m.corr, res.Schedule, nil, err)
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenCached hashes the same requests through one cache per Limited
// setting, in a fixed order, so warm starts see the same program sequence.
func goldenCached(t *testing.T, c goldenCase) string {
	h := sha256.New()
	s := goldenSet(c.n)
	for _, limited := range []bool{false, true} {
		cache := NewCache(CacheConfig{})
		for pass := 0; pass < 2; pass++ { // the second pass hits
			for _, obj := range goldenObjectives {
				for _, km := range c.grid {
					kappa, mu := km[0], km[1]
					req := Request{Set: s, Kappa: kappa, Mu: mu, Obj: obj, Limited: limited}
					if c.n > 22 {
						res, _, err := cache.Solve(req)
						putResult(h, s, core.Correlation{}, res.Schedule, res.Members, err)
						continue
					}
					res, _, err := cache.Solve(req)
					putResult(h, s, core.Correlation{}, res.Schedule, nil, err)
					req.MaxRate = true
					res, _, err = cache.Solve(req)
					putResult(h, s, core.Correlation{}, res.Schedule, nil, err)
					req.MaxRate, req.Corr = false, goldenModel()
					res, _, err = cache.Solve(req)
					putResult(h, s, req.Corr, res.Schedule, nil, err)
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenHashes were computed at the commit before the model kernel and the
// program builder were merged.
var goldenHashes = map[string]string{
	"uncached/5":  "6245a0f09da3fe1339c4526083c789e482d7396ae8003d4cf9ad458b589f61d4",
	"cached/5":    "2b4df2f26424c1b58bd8fdf482dc8770a691aa35920561e7c3125c21498201f7",
	"uncached/20": "2b4211e6ea18f8370bae0377fdf614514d6539e5505dee55bb4e00dcb23e8ab9",
	"cached/20":   "4b2e15cd1d0d00b72f8895ecda6dc1efe5c048852617fdba148b5b26815edda2",
	"uncached/40": "d8a2bb323934a9224855919588feaaa4bb8c095064b999e523f261cc023fda96",
	"cached/40":   "d74daed4edc013c94f0cb5a4d38a1b592287f12dcb4af0859ef49759de0dce02",
}

func TestModelGoldenBits(t *testing.T) {
	for _, c := range goldenCases {
		if testing.Short() && c.n > 5 {
			continue
		}
		for _, mode := range []string{"uncached", "cached"} {
			name := fmt.Sprintf("%s/%d", mode, c.n)
			var got string
			if mode == "uncached" {
				got = goldenUncached(t, c)
			} else {
				got = goldenCached(t, c)
			}
			if got != goldenHashes[name] {
				t.Errorf("%s: hash %s, want %s", name, got, goldenHashes[name])
			}
		}
	}
}
