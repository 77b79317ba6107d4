package schedule

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"remicss/internal/core"
	"remicss/internal/lp"
	"remicss/internal/obs"
	"remicss/internal/shardix"
)

// SolveTier reports how a Cache resolved a schedule request. Ordered from
// cheapest to most expensive.
type SolveTier int

// Solve tiers, carried by the schedule-resolved trace event.
const (
	// TierCached: the quantized channel state hit the cache; no solve ran.
	TierCached SolveTier = iota
	// TierWarm: a cache miss solved by warm-starting the retained simplex
	// basis (any lp reuse tier better than cold).
	TierWarm
	// TierCold: a cache miss solved from scratch.
	TierCold
)

// String implements fmt.Stringer.
func (t SolveTier) String() string {
	switch t {
	case TierCached:
		return "cached"
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	default:
		return "tier(?)"
	}
}

// The quantization grid: channel properties and correlation factors are
// snapped to multiples of these steps before keying and solving, so nearby
// channel states share one cache entry (and one schedule).
const (
	riskStep  = 0.01
	lossStep  = 0.01
	delayStep = 5 * time.Millisecond
	rateStep  = 10.0
	rhoStep   = 0.05
)

// CacheConfig tunes a schedule Cache. The zero value selects the documented
// defaults.
type CacheConfig struct {
	// MaxEntries bounds the table size; beyond it the least-recently-used
	// quarter of entries is evicted. Default 1024.
	MaxEntries int
	// Metrics, when non-nil, registers the cache and warm-solve counters.
	Metrics *obs.Registry
	// Trace, when non-nil, receives a schedule-resolved event (value =
	// solve tier) for every Solve call. Now supplies event timestamps
	// and defaults to zero timestamps when nil.
	Trace *obs.Trace
	// Now supplies trace timestamps; see Trace.
	Now func() time.Duration
}

// cacheEntry is one resolved schedule. Entries form collision chains; all
// fields except next and lastUsed are written once before publication.
type cacheEntry struct {
	next     atomic.Pointer[cacheEntry] // eviction unlinks in place
	hash     uint64                     // hashState of the entry's state
	flags    uint64                     // requestFlags
	obj      Objective
	kappa    uint64 // float bits
	mu       uint64
	cap      uint64
	qchan    []int64 // 4 quantized values per channel
	qcorr    []int64 // 3 quantized values per shared-risk group; nil when uncorrelated
	res      Result
	lastUsed atomic.Uint64 // generation clock at last touch
}

func (e *cacheEntry) ID() uint64 { return e.hash } // the table key

// Cache memoizes optimized share schedules keyed by quantized channel
// state, so steady-state adaptation (health failover, controller retuning)
// is a lock-free lookup instead of a linear-program solve. Misses fall back
// to a warm-started simplex re-solve on the retained basis, then to a cold
// solve — the three tiers of the solve path. A miss whose program differs
// from the last one solved only in its right-hand side (κ, μ, the
// utilization targets or the group cap) skips the builder and re-enters
// the retained factorization by dual simplex (lp.Solver.Resolve).
//
// The read path takes no locks and performs no allocation: it hashes the
// quantized channel state, loads its chain from a lock-free shardix.Table,
// and compares entries field-wise. Writes (misses) are serialized by a
// mutex and publish one table slot each, whatever the fill. Schedules
// returned by the cache are shared and must not be mutated by callers.
//
// Solves run on the quantized channel values, so any two states that
// quantize equally get the same cached schedule from one cache, across
// goroutines. Two caches with different miss histories agree on the
// optimal objective but not always on the bits: a warm re-entry reaches
// the optimum by other pivots than a cold solve, which can move the last
// bits of a probability and, where the optimum is tied, land on another
// optimal schedule.
type Cache struct {
	cfg   CacheConfig
	table shardix.Table[cacheEntry, *cacheEntry] // state hash → chain head; written under mu
	gen   atomic.Uint64

	mu    sync.Mutex // serializes the miss path
	count int        // entries in table; written under mu
	miss  *missState // guarded by mu; nil until the first miss

	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	warmSolves *obs.Counter
	warmPivots *obs.Counter
}

// missState is what the miss path keeps between solves: the solver with
// the factorization of the last program solved, the basis to warm-start
// from, and that program's quantized request and choice set, which
// identify its coefficients. choices is nil when the solver holds no
// program Resolve may continue from.
type missState struct {
	solver  *lp.Solver
	basis   *lp.Basis
	last    Request
	choices []core.Choice
}

// NewCache builds a schedule cache.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	c := &Cache{cfg: cfg}
	if reg := c.cfg.Metrics; reg != nil {
		c.hits = reg.Counter("remicss_schedule_cache_hits_total")
		c.misses = reg.Counter("remicss_schedule_cache_misses_total")
		c.evictions = reg.Counter("remicss_schedule_cache_evictions_total")
		c.warmSolves = reg.Counter("lp_warm_solves_total")
		c.warmPivots = reg.Counter("lp_warm_pivots_total")
	}
	return c
}

// Solve is the cached form of Solve: it resolves the request for the
// channel state and correlation factors quantized to the cache's grid,
// returning the result and the tier that produced it. The whole request
// is the key: the program options, κ and μ, the quantized channel state,
// and the materially correlated groups (an all-zero model shares the
// independent entries), so health-driven drift within one grid cell stays a
// lock-free hit while a genuine regime change re-solves, warm-started like
// any other miss.
func (c *Cache) Solve(req Request) (Result, SolveTier, error) {
	if e, ok := c.lookup(&req); ok {
		c.emit(TierCached)
		return e.res, TierCached, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Another goroutine may have resolved this state while we waited.
	if e, ok := c.lookup(&req); ok {
		c.emit(TierCached)
		return e.res, TierCached, nil
	}
	if c.misses != nil {
		c.misses.Inc()
	}

	// Solve on the quantized state, not the raw one: every state in this
	// grid cell must map to the same schedule bytes. The correlation model
	// is quantized the same way for the same reason.
	q := req
	q.Set = quantizeSet(req.Set)
	q.Corr = quantizeCorr(req.Corr)
	sol, choices, tier, err := c.solveMiss(&q)
	if err != nil {
		return Result{}, TierCold, err
	}
	res, err := q.result(sol, choices)
	if err != nil {
		return Result{}, tier, err
	}

	c.insert(&q, res)
	c.emit(tier)
	return res, tier, nil
}

// solveMiss solves the quantized request q on the retained solver: by
// Resolve when q's coefficients are those of the last program solved, by
// WarmSolve from the retained basis otherwise. It classifies the outcome
// as a warm or cold tier, advancing the warm counters. Caller holds c.mu.
//
//lint:allow mutexguard the one call site (Solve) holds c.mu across the call
func (c *Cache) solveMiss(q *Request) (lp.Solution, []core.Choice, SolveTier, error) {
	m := c.miss
	if m == nil {
		m = &missState{solver: lp.NewSolver()}
		c.miss = m
	}
	var (
		sol     lp.Solution
		basis   *lp.Basis
		choices []core.Choice
		err     error
	)
	if m.choices != nil && sameCoefficients(&m.last, q) {
		// The set and model were validated when the memo was built.
		if err = q.Set.CheckParams(q.Kappa, q.Mu); err != nil {
			return lp.Solution{}, nil, TierCold, err
		}
		var b []float64
		if b, err = q.rhs(); err != nil {
			return lp.Solution{}, nil, TierCold, err
		}
		choices = m.choices
		sol, basis, err = m.solver.Resolve(b)
	} else {
		var prob lp.Problem
		if prob, choices, err = q.build(); err != nil {
			return lp.Solution{}, nil, TierCold, err
		}
		sol, basis, err = m.solver.WarmSolve(m.basis, prob)
	}
	if err != nil {
		m.basis, m.choices = nil, nil
		return lp.Solution{}, nil, TierCold, wrapLPError(err)
	}
	m.basis, m.last, m.choices = basis, *q, choices
	tier := TierCold
	if st := m.solver.LastStats(); st.Tier != lp.TierCold {
		tier = TierWarm
		if c.warmSolves != nil {
			c.warmSolves.Inc()
			c.warmPivots.Add(int64(st.Pivots))
		}
	}
	return sol, choices, tier, nil
}

// requestFlags packs a request's program options for its key.
//
//remicss:noalloc
func requestFlags(req *Request) uint64 {
	var f uint64
	if req.MaxRate {
		f |= 1
	}
	if req.Limited {
		f |= 2
	}
	return f
}

// lookup is the lock-free, allocation-free cache read path: hash the
// quantized request, load its chain from the table, compare field-wise.
//
//remicss:noalloc
func (c *Cache) lookup(req *Request) (*cacheEntry, bool) {
	h := hashState(req)
	for e := c.table.Get(h); e != nil; e = e.next.Load() {
		if entryMatches(e, req) {
			e.lastUsed.Store(c.gen.Add(1))
			if c.hits != nil {
				c.hits.Inc()
			}
			return e, true
		}
	}
	return nil, false
}

// hashState folds the quantized request through a splitmix64-style mixer.
//
//remicss:noalloc
func hashState(req *Request) uint64 {
	h := mix64(requestFlags(req), uint64(req.Obj))
	h = mix64(h, uint64(len(req.Set)))
	h = mix64(h, math.Float64bits(req.Kappa))
	h = mix64(h, math.Float64bits(req.Mu))
	h = mix64(h, math.Float64bits(req.GroupExposureCap))
	for _, ch := range req.Set {
		h = mix64(h, uint64(quantRisk(ch.Risk)))
		h = mix64(h, uint64(quantLoss(ch.Loss)))
		h = mix64(h, uint64(quantDelay(ch.Delay)))
		h = mix64(h, uint64(quantRate(ch.Rate)))
	}
	// Only materially correlated groups reach the key, so an all-zero
	// model hashes identically to no model and shares its entries.
	for _, g := range req.Corr.Groups {
		qr, ql := quantRho(g.RiskRho), quantRho(g.LossRho)
		if qr == 0 && ql == 0 {
			continue
		}
		h = mix64(h, uint64(g.Mask))
		h = mix64(h, uint64(qr))
		h = mix64(h, uint64(ql))
	}
	return h
}

// entryMatches compares an entry against a query field-wise — hash
// collisions must never alias two distinct states.
//
//remicss:noalloc
func entryMatches(e *cacheEntry, req *Request) bool {
	if e.flags != requestFlags(req) || e.obj != req.Obj ||
		e.kappa != math.Float64bits(req.Kappa) || e.mu != math.Float64bits(req.Mu) ||
		e.cap != math.Float64bits(req.GroupExposureCap) ||
		len(e.qchan) != 4*len(req.Set) {
		return false
	}
	for i, ch := range req.Set {
		if e.qchan[4*i] != quantRisk(ch.Risk) ||
			e.qchan[4*i+1] != quantLoss(ch.Loss) ||
			e.qchan[4*i+2] != quantDelay(ch.Delay) ||
			e.qchan[4*i+3] != quantRate(ch.Rate) {
			return false
		}
	}
	// Compare the materially correlated groups (zero-quantized ones are
	// dropped from keys, so an all-zero model matches uncorrelated
	// entries) in order against the entry's stored triples.
	gi := 0
	for _, g := range req.Corr.Groups {
		qr, ql := quantRho(g.RiskRho), quantRho(g.LossRho)
		if qr == 0 && ql == 0 {
			continue
		}
		if gi*3+3 > len(e.qcorr) ||
			e.qcorr[gi*3] != int64(g.Mask) ||
			e.qcorr[gi*3+1] != qr || e.qcorr[gi*3+2] != ql {
			return false
		}
		gi++
	}
	return gi*3 == len(e.qcorr)
}

//remicss:noalloc
func quantRisk(z float64) int64 { return int64(math.Round(z / riskStep)) }

//remicss:noalloc
func quantLoss(l float64) int64 { return int64(math.Round(l / lossStep)) }

//remicss:noalloc
func quantDelay(d time.Duration) int64 {
	return int64(math.Round(float64(d) / float64(delayStep)))
}

//remicss:noalloc
func quantRate(r float64) int64 { return int64(math.Round(r / rateStep)) }

//remicss:noalloc
func quantRho(r float64) int64 { return int64(math.Round(r / rhoStep)) }

// mix64 is a splitmix64-style combining step.
//
//remicss:noalloc
func mix64(h, v uint64) uint64 {
	z := (h ^ v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantizeSet snaps every channel to the grid. Quantized risk and loss are
// clamped back into their valid ranges (a loss snapped up to 1.0 would be
// an invalid channel).
func quantizeSet(s core.Set) core.Set {
	qs := make(core.Set, len(s))
	for i, ch := range s {
		qs[i] = core.Channel{
			Risk:  clampProb(float64(quantRisk(ch.Risk)) * riskStep),
			Loss:  math.Min(clampProb(float64(quantLoss(ch.Loss))*lossStep), 1-1e-9),
			Delay: time.Duration(quantDelay(ch.Delay)) * delayStep,
			Rate:  math.Max(float64(quantRate(ch.Rate))*rateStep, rateStep/2),
		}
	}
	return qs
}

func clampProb(p float64) float64 { return math.Max(0, math.Min(1, p)) }

// quantizeCorr snaps correlation factors to the rho grid, dropping groups
// whose factors both quantize to zero — those are independence, and keying
// them would split one schedule across two entries.
func quantizeCorr(corr core.Correlation) core.Correlation {
	var out core.Correlation
	for _, g := range corr.Groups {
		qr, ql := quantRho(g.RiskRho), quantRho(g.LossRho)
		if qr == 0 && ql == 0 {
			continue
		}
		out.Groups = append(out.Groups, core.RiskGroup{
			Mask:    g.Mask,
			RiskRho: clampProb(float64(qr) * rhoStep),
			LossRho: clampProb(float64(ql) * rhoStep),
		})
	}
	return out
}

// insert publishes the entry for the quantized request q at the head of
// its hash chain, first evicting the least-recently-used quarter when the
// table is full. Caller holds c.mu.
func (c *Cache) insert(q *Request, res Result) {
	qchan := make([]int64, 0, 4*len(q.Set))
	for _, ch := range q.Set {
		qchan = append(qchan, quantRisk(ch.Risk), quantLoss(ch.Loss), quantDelay(ch.Delay), quantRate(ch.Rate))
	}
	var qcorr []int64
	for _, g := range q.Corr.Groups {
		qcorr = append(qcorr, int64(g.Mask), quantRho(g.RiskRho), quantRho(g.LossRho))
	}
	e := &cacheEntry{
		hash:  hashState(q),
		flags: requestFlags(q),
		obj:   q.Obj,
		kappa: math.Float64bits(q.Kappa),
		mu:    math.Float64bits(q.Mu),
		cap:   math.Float64bits(q.GroupExposureCap),
		qchan: qchan,
		qcorr: qcorr,
		res:   res,
	}
	e.lastUsed.Store(c.gen.Add(1))

	if c.count >= c.cfg.MaxEntries {
		c.evict()
	}
	e.next.Store(c.table.Get(e.hash))
	c.table.Put(e)
	c.count++
}

// evict drops every entry last used before the quartile boundary of the
// table's recency values, unlinking it in place: a reader already on it
// still follows its next pointer. Caller holds c.mu.
func (c *Cache) evict() {
	used := make([]uint64, 0, c.count)
	c.table.Range(func(head *cacheEntry) {
		for cur := head; cur != nil; cur = cur.next.Load() {
			used = append(used, cur.lastUsed.Load())
		}
	})
	slices.Sort(used)
	idx := max(len(used)/4, 1)
	if idx >= len(used) {
		return
	}
	floor := used[idx] + 1
	c.table.Range(func(head *cacheEntry) {
		var prev *cacheEntry
		for cur := head; cur != nil; cur = cur.next.Load() {
			switch next := cur.next.Load(); {
			case cur.lastUsed.Load() >= floor:
				prev = cur
				continue
			case prev != nil:
				prev.next.Store(next)
			case next != nil:
				c.table.Put(next)
			default:
				c.table.Delete(cur.hash)
			}
			c.count--
			if c.evictions != nil {
				c.evictions.Inc()
			}
		}
	})
}

// Len reports the number of cached schedules.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

func (c *Cache) emit(tier SolveTier) {
	if c.cfg.Trace == nil {
		return
	}
	var at time.Duration
	if c.cfg.Now != nil {
		at = c.cfg.Now()
	}
	c.cfg.Trace.Record(obs.EventScheduleResolved, -1, at, 0, int64(tier))
}
