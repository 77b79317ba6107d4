package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"remicss/internal/chaos"
	"remicss/internal/core"
	"remicss/internal/netem"
	"remicss/internal/obs"
	"remicss/internal/remicss"
	"remicss/internal/schedule"
	"remicss/internal/sharing"
)

// ChaosSetup returns the network the builtin chaos scenarios target: three
// identical 20 Mbps channels with no baseline loss or delay, so every
// degradation in a chaos run is attributable to the injected faults.
func ChaosSetup() Setup {
	s := Setup{Name: "chaos-3x20Mbps"}
	for i := 0; i < 3; i++ {
		s.RateMbps = append(s.RateMbps, 20)
		s.Loss = append(s.Loss, 0)
		s.Delay = append(s.Delay, 0)
	}
	return s
}

// ChaosConfig parameterizes one chaos run: a fault scenario replayed over
// the emulator against a sender using the channel-health failover chooser.
type ChaosConfig struct {
	// Scenario is the fault script. Required; its Seed drives every RNG in
	// the run and its Duration is the measurement window.
	Scenario *chaos.Scenario
	// Setup is the baseline network. Zero value uses ChaosSetup.
	Setup Setup
	// Kappa and Mu are the protocol parameters. Defaults: κ = 2, μ = 3.
	Kappa, Mu float64
	// OfferedMbps is the iperf-style offered load. Default 4 Mbps — well
	// under capacity, so measured loss reflects faults, not congestion.
	OfferedMbps float64
	// Health tunes the failover state machine; the zero value uses the
	// tracker defaults.
	Health remicss.HealthConfig
	// Resolve switches the chooser from multiplicity clamping to LP
	// re-solving over the surviving channels (remicss.Resolve).
	Resolve bool
	// Privacy, when non-nil, scores the run under the correlated-adversary
	// model and leakage meter and attaches a PrivacyReport to the result.
	// When Resolve is also set, the chooser re-solves under the same
	// correlated model (remicss.Resolve).
	Privacy *PrivacyConfig
	// PayloadBytes is the symbol size. Defaults to DefaultPayloadBytes.
	PayloadBytes int
	// Obs, when non-nil, receives every metric series the run produces,
	// including the remicss_channel_* health series.
	Obs *obs.Registry
	// Trace, when non-nil, receives the run's structured events. Nil
	// allocates a private ring sized for the run; RunChaos reads the trace
	// either way — it is the ground truth for the threshold-floor check.
	Trace *obs.Trace
}

func (c *ChaosConfig) applyDefaults() {
	if c.Setup.N() == 0 {
		c.Setup = ChaosSetup()
	}
	if c.Kappa == 0 && c.Mu == 0 {
		c.Kappa, c.Mu = 2, 3
	}
	if c.OfferedMbps == 0 {
		c.OfferedMbps = 4
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = DefaultPayloadBytes
	}
	if c.Trace == nil {
		c.Trace = obs.NewTrace(1 << 17)
	}
}

// ChaosResult is the degradation report from one chaos run.
type ChaosResult struct {
	// Scenario and Seed identify the replayed script.
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Offered and Delivered count symbols attempted and reconstructed.
	Offered   int64 `json:"offered"`
	Delivered int64 `json:"delivered"`
	// DeliveryRatio is Delivered/Offered; Floor is the scenario's minimum
	// acceptable ratio and FloorOK whether the run cleared it.
	DeliveryRatio float64 `json:"delivery_ratio"`
	Floor         float64 `json:"floor"`
	FloorOK       bool    `json:"floor_ok"`
	// MinThreshold is the smallest threshold k of any scheduled symbol —
	// taken from the chooser (every symbol) and cross-checked against the
	// symbol-scheduled trace events. KappaFloor is ⌊κ⌋ and ThresholdOK
	// whether MinThreshold stayed at or above it (the Theorem 5 secrecy
	// floor: degradation sheds multiplicity, never threshold).
	MinThreshold int  `json:"min_threshold"`
	KappaFloor   int  `json:"kappa_floor"`
	ThresholdOK  bool `json:"threshold_ok"`
	// FaultsInjected counts fault transitions applied by the scripter;
	// Failovers counts transitions to the Down state, Recoveries
	// transitions back to Healthy, and Probes admitted probe datagrams.
	FaultsInjected int `json:"faults_injected"`
	Failovers      int `json:"failovers"`
	Recoveries     int `json:"recoveries"`
	Probes         int `json:"probes"`
	// MeanDelay is the average one-way delay of delivered symbols.
	MeanDelay time.Duration `json:"mean_delay_ns"`
	// FinalStates is each channel's health state when the run ended.
	FinalStates []string `json:"final_states"`
	// Links are the per-channel emulator ground-truth counters.
	Links []netem.LinkStats `json:"links"`
	// Privacy is the correlated-adversary verdict, present when the run
	// was configured with a PrivacyConfig.
	Privacy *PrivacyReport `json:"privacy,omitempty"`
}

// Pass reports whether the run met its acceptance gates: the delivery
// floor, the threshold floor, and — when privacy scoring was configured —
// the leakage budget.
func (r ChaosResult) Pass() bool {
	return r.FloorOK && r.ThresholdOK && (r.Privacy == nil || r.Privacy.BudgetOK)
}

// minKChooser wraps the health chooser and tracks the smallest threshold it
// ever returned, immune to trace-ring wrap. With counts non-nil it also
// tallies the realized schedule — how many symbols each (k, M) assignment
// carried — for privacy scoring.
type minKChooser struct {
	inner  remicss.Chooser
	minK   int
	counts map[core.Assignment]int64
}

func (c *minKChooser) Choose(links []remicss.Link) (int, uint32, bool) {
	k, mask, ok := c.inner.Choose(links)
	if ok {
		if c.minK == 0 || k < c.minK {
			c.minK = k
		}
		if c.counts != nil {
			c.counts[core.Assignment{K: k, Mask: mask}]++
		}
	}
	return k, mask, ok
}

// RunChaos replays one fault scenario over the emulator: it wires a sender
// (health tracker + failover chooser) and receiver across emulated links,
// applies the scenario's scripted faults, offers steady load for the
// scenario duration, and reports delivery degradation alongside the
// threshold-floor check. Runs are deterministic: the same scenario and
// config replay the same fault timeline and schedule, bit for bit.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	if cfg.Scenario == nil {
		return ChaosResult{}, fmt.Errorf("bench: nil chaos scenario")
	}
	cfg.applyDefaults()
	if err := cfg.Scenario.Validate(cfg.Setup.N()); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}
	set := cfg.Setup.ChannelSet(cfg.PayloadBytes)
	if err := set.Validate(); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}
	if err := set.CheckParams(cfg.Kappa, cfg.Mu); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}

	eng := netem.NewEngine()
	seed := cfg.Scenario.Seed
	scheme := sharing.NewAuto(rand.New(rand.NewSource(seed))) //lint:allow insecure-rand chaos runs must replay exactly from the scenario seed

	var (
		delivered int64
		delaySum  time.Duration
	)
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme:  scheme,
		Clock:   eng.Now,
		Timeout: 500 * time.Millisecond,
		Metrics: cfg.Obs,
		Trace:   cfg.Trace,
		OnSymbol: func(_ uint64, _ []byte, delay time.Duration) {
			delivered++
			delaySum += delay
		},
	})
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}

	linkCfgs := cfg.Setup.LinkConfigs(cfg.PayloadBytes, 0)
	links := make([]remicss.Link, len(linkCfgs))
	emLinks := make([]*netem.Link, len(linkCfgs))
	for i, lc := range linkCfgs {
		link, err := netem.NewLink(eng, lc, rand.New(rand.NewSource(seed+int64(i)+1)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			return ChaosResult{}, fmt.Errorf("bench: channel %d: %w", i, err)
		}
		if cfg.Obs != nil {
			link.Instrument(cfg.Obs, cfg.Trace, i)
		}
		links[i] = link
		emLinks[i] = link
	}

	tracker, err := remicss.NewHealthTracker(cfg.Health, cfg.Setup.N(), eng.Now, cfg.Obs, cfg.Trace)
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}
	var opts []remicss.HealthOption
	if cfg.Resolve {
		corr, _ := privacyCorrelation(cfg, set.N())
		opts = append(opts, remicss.Resolve(set, corr, schedule.ObjectiveLoss))
	}
	chooser, err := remicss.NewHealthChooser(cfg.Kappa, cfg.Mu, tracker, rand.New(rand.NewSource(seed+100)), opts...)
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}
	rec := &minKChooser{inner: chooser}
	if cfg.Privacy != nil {
		rec.counts = make(map[core.Assignment]int64)
	}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: rec,
		Clock:   eng.Now,
		Metrics: cfg.Obs,
		Trace:   cfg.Trace,
		Health:  tracker,
	}, links)
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}

	if err := cfg.Scenario.Apply(eng, emLinks, cfg.Trace); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: %w", err)
	}

	offeredRate := PacketsPerSecond(cfg.OfferedMbps, cfg.PayloadBytes)
	interval := time.Duration(float64(time.Second) / offeredRate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	var attempts int64
	var offer func()
	offer = func() {
		attempts++
		_ = snd.Send(payload)
		next := eng.Now() + interval
		if next <= cfg.Scenario.Duration {
			eng.At(next, offer)
		}
	}
	eng.Schedule(0, offer)
	eng.Run(cfg.Scenario.Duration)
	eng.RunUntilIdle()

	res := ChaosResult{
		Scenario:     cfg.Scenario.Name,
		Seed:         seed,
		Offered:      attempts,
		Delivered:    delivered,
		Floor:        cfg.Scenario.Floor,
		MinThreshold: rec.minK,
		KappaFloor:   int(math.Floor(cfg.Kappa)),
		Links:        make([]netem.LinkStats, len(emLinks)),
		FinalStates:  make([]string, cfg.Setup.N()),
	}
	for i, l := range emLinks {
		res.Links[i] = l.Stats()
	}
	for i := range res.FinalStates {
		res.FinalStates[i] = tracker.State(i).String()
	}
	if attempts > 0 {
		res.DeliveryRatio = float64(delivered) / float64(attempts)
	}
	if delivered > 0 {
		res.MeanDelay = delaySum / time.Duration(delivered)
	}
	res.FloorOK = res.DeliveryRatio >= res.Floor

	// The trace is the observability ground truth: cross-check the
	// chooser-side minimum against the symbol-scheduled events still held
	// in the ring, and pull the failover counters from the state stream.
	for _, ev := range cfg.Trace.Snapshot(nil) {
		switch ev.Kind {
		case obs.EventSymbolScheduled:
			if k := int(ev.Value >> 8); res.MinThreshold == 0 || k < res.MinThreshold {
				res.MinThreshold = k
			}
		case obs.EventChannelStateChanged:
			switch remicss.HealthState(ev.Value) {
			case remicss.HealthDown:
				res.Failovers++
			case remicss.HealthHealthy:
				res.Recoveries++
			}
		case obs.EventChannelProbe:
			res.Probes++
		case obs.EventFaultInjected:
			res.FaultsInjected++
		}
	}
	res.ThresholdOK = res.MinThreshold >= res.KappaFloor

	if cfg.Privacy != nil {
		rep, err := scorePrivacy(cfg, set, rec.counts, cfg.Trace)
		if err != nil {
			return ChaosResult{}, fmt.Errorf("bench: privacy scoring: %w", err)
		}
		res.Privacy = rep
	}
	return res, nil
}

// privacyCorrelation materializes the correlated model a ChaosConfig's
// privacy settings imply, for wiring into the chooser's re-solve path. ok
// is false when privacy scoring is off or no shared-risk groups exist.
func privacyCorrelation(cfg ChaosConfig, n int) (core.Correlation, bool) {
	if cfg.Privacy == nil {
		return core.Correlation{}, false
	}
	groups := cfg.Privacy.Groups
	if len(groups) == 0 {
		groups = chaos.SharedGroups(cfg.Scenario, n)
	}
	if len(groups) == 0 {
		return core.Correlation{}, false
	}
	rho := cfg.Privacy.Rho
	if rho == 0 {
		rho = DefaultPrivacyRho
	}
	var corr core.Correlation
	for _, m := range groups {
		corr.Groups = append(corr.Groups, core.RiskGroup{Mask: m, RiskRho: rho, LossRho: rho})
	}
	return corr, true
}
