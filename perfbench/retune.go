package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand" //lint:allow insecure-rand generates the drifting channel estimates from the seed argument; no share material
	"time"

	"remicss"
)

// retune-drift: an adaptive controller retuning (κ, μ) once per epoch over
// the paper's five-channel testbed while the channel estimates drift.
const (
	retuneChannels = 5
	// retuneTargetLoss and retuneMaxRisk are the controller's targets: μ
	// rises when an epoch loses more than 2% of its symbols, and κ rises
	// until the schedule's risk is at most 3%.
	retuneTargetLoss = 0.02
	retuneMaxRisk    = 0.03
	// retuneShift is the per-epoch chance that one channel switches
	// between its normal and degraded regime.
	retuneShift = 0.01
	// retuneRefresh is the per-epoch chance that a channel's estimate is
	// refreshed.
	retuneRefresh = 0.3
	// retuneSymbols is the epoch's loss sample size.
	retuneSymbols = 200
	// retuneDigestEpochs decisions make up the digest.
	retuneDigestEpochs = 500
	retuneSetups       = 201
)

// testbed is the five channels' two regimes each: normal, and degraded
// (twice the risk, more loss and delay, half the rate). Only the timing of
// regime changes and the noise come from the seed, so every seed exercises
// the same mix of channel states.
var testbed = [retuneChannels][2]remicss.Channel{
	{{Risk: 0.05, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 1000}, {Risk: 0.10, Loss: 0.06, Delay: 30 * time.Millisecond, Rate: 500}},
	{{Risk: 0.10, Loss: 0.02, Delay: 20 * time.Millisecond, Rate: 800}, {Risk: 0.20, Loss: 0.07, Delay: 40 * time.Millisecond, Rate: 400}},
	{{Risk: 0.15, Loss: 0.03, Delay: 30 * time.Millisecond, Rate: 600}, {Risk: 0.30, Loss: 0.08, Delay: 50 * time.Millisecond, Rate: 300}},
	{{Risk: 0.20, Loss: 0.05, Delay: 40 * time.Millisecond, Rate: 400}, {Risk: 0.40, Loss: 0.10, Delay: 60 * time.Millisecond, Rate: 200}},
	{{Risk: 0.30, Loss: 0.08, Delay: 50 * time.Millisecond, Rate: 200}, {Risk: 0.60, Loss: 0.13, Delay: 70 * time.Millisecond, Rate: 100}},
}

// channelDrift is one channel's estimate process: an AR(1) excursion
// around its regime's mean, with noise on the order of the schedule
// cache's quantization steps (risk and loss 0.01, delay 5 ms, rate 10).
type channelDrift struct {
	regime int
	dev    remicss.Channel
}

// drift generates the epochs of one run from the seed.
type drift struct {
	rng *rand.Rand
	ch  [retuneChannels]channelDrift
	set remicss.ChannelSet
}

func newDrift(seed int64) *drift {
	return &drift{rng: rand.New(rand.NewSource(seed)), set: make(remicss.ChannelSet, retuneChannels)}
}

// next advances one epoch and returns the channel estimates and the loss
// fraction measured over the epoch's symbols. Each channel's estimate is
// refreshed with probability retuneRefresh per epoch; the others keep
// last epoch's value, which is how a quiet epoch revisits a cached state.
func (d *drift) next() (remicss.ChannelSet, float64) {
	if d.rng.Float64() < retuneShift {
		c := &d.ch[d.rng.Intn(retuneChannels)]
		c.regime = 1 - c.regime
	}
	const phi = 0.8
	var meanLoss float64
	for i := range d.ch {
		c := &d.ch[i]
		mean := testbed[i][c.regime]
		if d.rng.Float64() < retuneRefresh {
			c.dev.Risk = phi*c.dev.Risk + 0.01*d.rng.NormFloat64()
			c.dev.Loss = phi*c.dev.Loss + 0.01*d.rng.NormFloat64()
			c.dev.Delay = time.Duration(phi*float64(c.dev.Delay) + 2e6*d.rng.NormFloat64())
			c.dev.Rate = phi*c.dev.Rate + 5*d.rng.NormFloat64()
		}
		d.set[i] = remicss.Channel{
			Risk:  clamp(mean.Risk+c.dev.Risk, 0.001, 0.95),
			Loss:  clamp(mean.Loss+c.dev.Loss, 0.001, 0.5),
			Delay: max(time.Millisecond, mean.Delay+c.dev.Delay),
			Rate:  math.Max(50, mean.Rate+c.dev.Rate),
		}
		meanLoss += d.set[i].Loss / retuneChannels
	}
	lost := 0
	for i := 0; i < retuneSymbols; i++ {
		if d.rng.Float64() < meanLoss/2 {
			lost++
		}
	}
	return d.set, float64(lost) / retuneSymbols
}

func clamp(x, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, x)) }

// retuneEnv is the controller and its schedule cache, ready for the first
// retune.
type retuneEnv struct {
	reg  *remicss.MetricsRegistry
	ctrl *remicss.AdaptController
}

func buildRetune() (*retuneEnv, error) {
	reg := remicss.NewMetricsRegistry()
	cache := remicss.NewScheduleCache(remicss.ScheduleCacheConfig{Metrics: reg})
	ctrl, err := remicss.NewAdaptController(remicss.AdaptConfig{
		N:          retuneChannels,
		TargetLoss: retuneTargetLoss,
		MaxRisk:    retuneMaxRisk,
		Cache:      cache,
	})
	if err != nil {
		return nil, err
	}
	return &retuneEnv{reg: reg, ctrl: ctrl}, nil
}

// decision is what one Retune chose.
type decision struct {
	kappa, mu, risk float64
	unmet           bool
}

// retunePass drives epochs through the controller: each op is one
// ObserveLoss plus Retune. The first retuneDigestEpochs decisions are kept
// for the digest.
type retunePass struct {
	env       *retuneEnv
	drift     *drift
	t         *tracer
	decisions []decision
	kappas    [retuneChannels + 1]int64
	unmet     int64
}

// op runs one epoch and records it on ph.
func (p *retunePass) op(ph *phase) {
	set, loss := p.drift.next()
	ph.attempted++
	start := nowNs()
	if p.t != nil {
		p.t.main.begin(spanRetune)
	}
	p.env.ctrl.ObserveLoss(loss)
	kappa, risk, err := p.env.ctrl.Retune(set)
	if p.t != nil {
		p.t.main.end()
	}
	took := nowNs() - start
	unmet := errors.Is(err, remicss.ErrRiskUnmet)
	if err != nil && !unmet {
		ph.failed++
		return
	}
	ph.lat = append(ph.lat, took)
	if unmet {
		p.unmet++
	}
	if k := int(kappa); k >= 0 && k <= retuneChannels {
		p.kappas[k]++
	}
	if len(p.decisions) < cap(p.decisions) {
		_, mu := p.env.ctrl.Params()
		p.decisions = append(p.decisions, decision{kappa, mu, risk, unmet})
	}
}

// run drives epochs for d, or until the digest is complete if that takes
// longer, polling m between ops when it is set.
func (p *retunePass) run(ph *phase, d time.Duration, m *meter) {
	end := nowNs() + int64(d)
	for nowNs() < end || len(p.decisions) < cap(p.decisions) {
		p.op(ph)
		if m != nil {
			m.poll()
		}
	}
}

func runRetune(cfg config, rep *report) error {
	d := measuredSeconds(cfg)
	env, setups, heap, err := repeatSetup(retuneSetups, buildRetune, func(*retuneEnv) {})
	if err != nil {
		return err
	}
	plain := measureRetune(env, cfg.seed, nil, d)
	rep.digest = plain.digest
	rep.attempted, rep.failed = plain.ph.attempted, plain.ph.failed
	rep.endToEnd = plain.ph.endToEnd(setups, heap)
	describeSetup(rep, setups)
	plain.describe(rep, "untraced")
	riskBits, other, err := replayDifferences(cfg.seed, plain.decisions)
	if err != nil {
		return err
	}
	rep.line("replay of the %d digest epochs on a fresh controller: %d decisions differ in the risk's last bits, %d in κ, μ or the target", len(plain.decisions), riskBits, other)
	if other > 0 {
		rep.problem("replaying identical epochs changed %d retune decisions", other)
	}
	if !cfg.trace {
		return nil
	}
	tenv, err := buildRetune()
	if err != nil {
		return err
	}
	t := newTracer()
	traced := measureRetune(tenv, cfg.seed, t, d)
	traced.describe(rep, "traced")
	if traced.digest != plain.digest {
		rep.problem("traced pass digest %s differs from untraced %s", traced.digest, plain.digest)
	}
	rep.attempted, rep.failed = traced.ph.attempted, traced.ph.failed
	rep.perLayer = retuneLayers(traced)
	addOverheadLayers(rep.perLayer, traced.ph, plain.ph, traced.rootNs)
	rep.notApplicable = map[string]string{}
	for name := range rep.perLayer {
		if !retuneLayerNames[name] {
			rep.notApplicable[name] = "no transfer: the workload runs the controller alone"
		}
	}
	return t.writeSpans(spanPath(cfg))
}

// retuneLayerNames are the per-layer metrics retune-drift moves.
var retuneLayerNames = map[string]bool{
	"schedule.lookups_per_op": true, "schedule.cache_hit_ratio": true, "schedule.evictions_per_op": true,
	"lp.warm_solves_per_op": true, "lp.cold_solves_per_op": true, "lp.pivots_per_solve": true,
	"other_share": true, "tracing.cpu_overhead_us_per_op": true, "tracing.latency_p50_overhead_us": true,
}

// retuneResult is one measured pass of retune-drift.
type retuneResult struct {
	ph        *phase
	decisions []decision
	digest    string
	counters  map[string]int64
	kappas    [retuneChannels + 1]int64
	unmet     int64
	rootNs    int64
}

// decisionDigest hashes κ, μ, whether the risk target was met, and the
// achieved risk to 12 significant digits. Schedule.Risk sums a map in
// iteration order, so the risk differs between runs in its last bits;
// replayDifferences reports that variation instead of the digest failing
// on it.
func decisionDigest(ds []decision) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%g %g %t %.12g\n", d.kappa, d.mu, d.unmet, d.risk)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// replayDifferences runs the digest epochs again on a fresh controller and
// counts decisions whose risk differs in any bit, and those that differ in
// anything else.
func replayDifferences(seed int64, want []decision) (riskBits, other int, err error) {
	env, err := buildRetune()
	if err != nil {
		return 0, 0, err
	}
	p := &retunePass{env: env, drift: newDrift(seed), decisions: make([]decision, 0, len(want))}
	p.run(&phase{}, 0, nil)
	for i, d := range p.decisions {
		w := want[i]
		switch {
		case d.kappa != w.kappa || d.mu != w.mu || d.unmet != w.unmet:
			other++
		case math.Float64bits(d.risk) != math.Float64bits(w.risk):
			riskBits++
		}
	}
	return riskBits, other, nil
}

// measureRetune runs the digest epochs, a warm-up and the measured pass on
// one controller, continuing a single epoch stream throughout.
func measureRetune(env *retuneEnv, seed int64, t *tracer, d time.Duration) retuneResult {
	p := &retunePass{env: env, drift: newDrift(seed), t: t, decisions: make([]decision, 0, retuneDigestEpochs)}
	p.run(&phase{}, 0, nil)
	res := retuneResult{decisions: p.decisions, digest: decisionDigest(p.decisions)}
	warm := &phase{}
	p.run(warm, warmup(d), nil)
	res.ph = &phase{lat: make([]int64, 0, len(warm.lat)*int(d/warmup(d))*2+4096)}
	if t != nil {
		t.reset()
	}
	p.kappas, p.unmet = [retuneChannels + 1]int64{}, 0
	before := counterSums(env.reg)
	m := startMeter(res.ph, d, func() (int64, int64, int) { return res.ph.attempted, res.ph.failed, len(res.ph.lat) })
	p.run(res.ph, d, m)
	m.stop()
	if t != nil {
		res.rootNs = t.rootNs()
	}
	res.counters = counterDelta(counterSums(env.reg), before)
	res.kappas, res.unmet = p.kappas, p.unmet
	res.ph.sortLatencies()
	return res
}

func (r retuneResult) describe(rep *report, label string) {
	r.ph.describe(rep, label, false)
	rep.line("%s decisions kappa=1..5 %v; risk target unmet %d (ErrRiskUnmet, not a failure)", label, r.kappas[1:], r.unmet)
	c := r.counters
	rep.line("%s schedule_cache hits=%d misses=%d evictions=%d warm_solves=%d warm_pivots=%d",
		label, c["remicss_schedule_cache_hits_total"], c["remicss_schedule_cache_misses_total"],
		c["remicss_schedule_cache_evictions_total"], c["lp_warm_solves_total"], c["lp_warm_pivots_total"])
}

// retuneLayers derives the per-layer metrics of retune-drift from the
// schedule cache's and solver's exported counters.
func retuneLayers(traced retuneResult) map[string]metric {
	c := traced.counters
	ops := float64(traced.ph.attempted)
	hits, misses := c["remicss_schedule_cache_hits_total"], c["remicss_schedule_cache_misses_total"]
	warm := c["lp_warm_solves_total"]
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out := zeroLayers()
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	set("schedule.lookups_per_op", float64(hits+misses)/ops)
	set("schedule.cache_hit_ratio", ratio(hits, hits+misses))
	set("schedule.evictions_per_op", float64(c["remicss_schedule_cache_evictions_total"])/ops)
	set("lp.warm_solves_per_op", float64(warm)/ops)
	set("lp.cold_solves_per_op", float64(misses-warm)/ops)
	set("lp.pivots_per_solve", ratio(c["lp_warm_pivots_total"], warm))
	return out
}
