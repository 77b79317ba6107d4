package bench

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"remicss/internal/core"
	"remicss/internal/netem"
	"remicss/internal/obs"
	"remicss/internal/remicss"
	"remicss/internal/schedule"
	"remicss/internal/sharing"
	"remicss/internal/striping"
)

// ChooserKind selects the sender's scheduling strategy for a run.
type ChooserKind int

// Available strategies.
const (
	// ChooserDynamic is the reference protocol's dynamic share schedule
	// (first m ready channels), the paper's implementation.
	ChooserDynamic ChooserKind = iota
	// ChooserStaticMaxRate samples from the Section IV-D LP schedule
	// (optimal loss at max rate), the ablation against the dynamic
	// approach.
	ChooserStaticMaxRate
	// ChooserStriping is the κ=μ=1 MPTCP-style deterministic striper; it
	// ignores Kappa/Mu.
	ChooserStriping
)

// HostCostModel charges sender CPU time per share, the bottleneck the
// paper's high-bandwidth experiment (Section VI-C) runs into around
// 750 Mbps aggregate. Splitting cost grows with the threshold k (polynomial
// evaluation is O(k) per byte), which is why large κ falls short of optimal
// sooner in Figure 7.
type HostCostModel struct {
	// Base is the fixed per-share cost (encoding, syscall analog).
	Base time.Duration
	// PerK is the additional per-share cost per unit of threshold.
	PerK time.Duration
}

// DefaultHostCost is calibrated so five identical channels saturate near
// 750 Mbps aggregate at κ = μ = 1 with 1400-byte symbols, matching the
// leveling-off point the paper reports.
var DefaultHostCost = HostCostModel{Base: 12 * time.Microsecond, PerK: 3 * time.Microsecond}

func (h HostCostModel) enabled() bool { return h.Base > 0 || h.PerK > 0 }

// perSymbol returns the host time consumed by one symbol with threshold k
// and multiplicity m.
func (h HostCostModel) perSymbol(k, m int) time.Duration {
	return time.Duration(m) * (h.Base + time.Duration(k)*h.PerK)
}

// hostSlack is how far the host's work backlog may extend past the current
// instant before offered symbols are refused. A real sender queues briefly
// (socket buffers, scheduler run queue) instead of dropping the instant the
// CPU is busy; without this allowance the deterministic offer ticks alias
// against the service time and carve a sawtooth into the host-limited
// region.
const hostSlack = 200 * time.Microsecond

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	// Setup is the network configuration.
	Setup Setup
	// Kappa and Mu are the protocol parameters (ignored by
	// ChooserStriping).
	Kappa, Mu float64
	// OfferedMbps is the iperf-style offered load.
	OfferedMbps float64
	// Duration is the measurement window in virtual time.
	Duration time.Duration
	// Seed makes the run reproducible.
	Seed int64
	// Chooser selects the scheduling strategy. Default ChooserDynamic.
	Chooser ChooserKind
	// IndexOrderChooser reverts the dynamic chooser to naive index-order
	// channel selection (ablation; see remicss.IndexOrder).
	IndexOrderChooser bool
	// HostCost enables the sender CPU bottleneck model; zero disables it.
	HostCost HostCostModel
	// PayloadBytes is the symbol size. Defaults to DefaultPayloadBytes.
	PayloadBytes int
	// QueueLimit is the per-link transmit queue depth. Defaults to
	// netem.DefaultQueueLimit.
	QueueLimit int
	// ReassemblyTimeout overrides the receiver eviction timeout. Defaults
	// to 500ms, comfortably above every setup's delays.
	ReassemblyTimeout time.Duration
	// Shards overrides the receiver's reassembly shard count (see
	// remicss.ReceiverConfig.Shards). 0 keeps the GOMAXPROCS default; the
	// cross-validation tests pin it so per-shard accounting is exercised
	// identically on any host.
	Shards int
	// Obs, when non-nil, receives every metric series the run produces:
	// protocol counters/histograms plus per-channel netem link counters.
	// This is how the cross-validation tests reconcile observability
	// against emulator ground truth.
	Obs *obs.Registry
	// Trace, when non-nil, receives structured events from the sender,
	// receiver, and emulated links.
	Trace *obs.Trace
}

func (c *RunConfig) applyDefaults() {
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = DefaultPayloadBytes
	}
	if c.ReassemblyTimeout <= 0 {
		c.ReassemblyTimeout = 500 * time.Millisecond
	}
}

// Result is the outcome of one run.
type Result struct {
	// OfferedSymbolRate is the attempted symbol rate (symbols/s).
	OfferedSymbolRate float64
	// AchievedSymbolRate is the delivered symbol rate (symbols/s).
	AchievedSymbolRate float64
	// AchievedMbps is the delivered rate in the paper's units.
	AchievedMbps float64
	// LossFraction is 1 - delivered/offered, the iperf datagram loss
	// report.
	LossFraction float64
	// MeanDelay is the average one-way symbol delay.
	MeanDelay time.Duration
	// Sender and Receiver are the protocol counters.
	Sender   remicss.SenderStats
	Receiver remicss.ReceiverStats
	// Links are the per-channel emulator counters, in channel order — the
	// ground truth the observability layer is reconciled against.
	Links []netem.LinkStats
}

// recordingChooser captures each choice so the driver can charge host cost.
type recordingChooser struct {
	inner remicss.Chooser
	k, m  int
}

func (r *recordingChooser) Choose(links []remicss.Link) (int, uint32, bool) {
	k, mask, ok := r.inner.Choose(links)
	if ok {
		r.k, r.m = k, bits.OnesCount32(mask)
	}
	return k, mask, ok
}

// Run executes one measurement: offer UDP-style load at the configured
// bitrate for the duration, and report achieved rate, loss, and delay.
func Run(cfg RunConfig) (Result, error) {
	cfg.applyDefaults()
	set := cfg.Setup.ChannelSet(cfg.PayloadBytes)
	if err := set.Validate(); err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}
	if cfg.Chooser != ChooserStriping {
		if err := set.CheckParams(cfg.Kappa, cfg.Mu); err != nil {
			return Result{}, fmt.Errorf("bench: %w", err)
		}
	}
	if cfg.OfferedMbps <= 0 {
		return Result{}, fmt.Errorf("bench: non-positive offered load %v", cfg.OfferedMbps)
	}
	if cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("bench: non-positive duration %v", cfg.Duration)
	}

	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(cfg.Seed))) //lint:allow insecure-rand benchmark runs must be reproducible from cfg.Seed

	var (
		delivered int64
		delaySum  time.Duration
	)
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme:  scheme,
		Clock:   eng.Now,
		Timeout: cfg.ReassemblyTimeout,
		Shards:  cfg.Shards,
		Metrics: cfg.Obs,
		Trace:   cfg.Trace,
		OnSymbol: func(_ uint64, _ []byte, delay time.Duration) {
			delivered++
			delaySum += delay
		},
	})
	if err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}

	linkCfgs := cfg.Setup.LinkConfigs(cfg.PayloadBytes, cfg.QueueLimit)
	links := make([]remicss.Link, len(linkCfgs))
	emLinks := make([]*netem.Link, len(linkCfgs))
	for i, lc := range linkCfgs {
		link, err := netem.NewLink(eng, lc, rand.New(rand.NewSource(cfg.Seed+int64(i)+1)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			return Result{}, fmt.Errorf("bench: channel %d: %w", i, err)
		}
		if cfg.Obs != nil {
			link.Instrument(cfg.Obs, cfg.Trace, i)
		}
		links[i] = link
		emLinks[i] = link
	}

	chooser, err := buildChooser(cfg, set)
	if err != nil {
		return Result{}, err
	}
	rec := &recordingChooser{inner: chooser}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: rec,
		Clock:   eng.Now,
		Metrics: cfg.Obs,
		Trace:   cfg.Trace,
	}, links)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}

	// Offer load at fixed intervals, iperf-style. Each attempt either sends
	// a symbol or records a stall (socket-buffer drop analog).
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
	var hostBusyUntil time.Duration
	var offer func()
	offer = func() {
		attempts++
		if !cfg.HostCost.enabled() || hostBusyUntil <= eng.Now()+hostSlack {
			if err := snd.Send(payload); err == nil && cfg.HostCost.enabled() {
				start := hostBusyUntil
				if now := eng.Now(); start < now {
					start = now
				}
				hostBusyUntil = start + cfg.HostCost.perSymbol(rec.k, rec.m)
			}
		}
		next := eng.Now() + interval
		if next <= cfg.Duration {
			eng.At(next, offer)
		}
	}
	eng.Schedule(0, offer)
	eng.Run(cfg.Duration)
	// Drain in-flight shares so deliveries near the window edge count.
	eng.RunUntilIdle()

	res := Result{
		OfferedSymbolRate:  float64(attempts) / cfg.Duration.Seconds(),
		AchievedSymbolRate: float64(delivered) / cfg.Duration.Seconds(),
		Sender:             snd.Stats(),
		Receiver:           recv.Stats(),
		Links:              make([]netem.LinkStats, len(emLinks)),
	}
	for i, l := range emLinks {
		res.Links[i] = l.Stats()
	}
	res.AchievedMbps = Mbps(res.AchievedSymbolRate, cfg.PayloadBytes)
	if attempts > 0 {
		res.LossFraction = 1 - float64(delivered)/float64(attempts)
	}
	if delivered > 0 {
		res.MeanDelay = delaySum / time.Duration(delivered)
	}
	return res, nil
}

func buildChooser(cfg RunConfig, set core.Set) (remicss.Chooser, error) {
	switch cfg.Chooser {
	case ChooserDynamic:
		var opts []remicss.DynamicOption
		if cfg.IndexOrderChooser {
			opts = append(opts, remicss.IndexOrder())
		}
		c, err := remicss.NewDynamicChooser(cfg.Kappa, cfg.Mu, rand.New(rand.NewSource(cfg.Seed+100)), opts...)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		return c, nil
	case ChooserStaticMaxRate:
		res, err := schedule.Solve(schedule.Request{Set: set, Kappa: cfg.Kappa, Mu: cfg.Mu, Obj: schedule.ObjectiveLoss, MaxRate: true})
		if err != nil {
			return nil, fmt.Errorf("bench: building static schedule: %w", err)
		}
		c, err := remicss.NewStaticChooser(res.Schedule, set.N(), rand.New(rand.NewSource(cfg.Seed+100)))
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		return c, nil
	case ChooserStriping:
		c, err := striping.New(set.Rates())
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		return c, nil
	default:
		return nil, fmt.Errorf("bench: unknown chooser kind %d", cfg.Chooser)
	}
}
