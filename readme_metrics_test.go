package remicss_test

import (
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"remicss"
	"remicss/internal/netem"
)

// buildRepresentativeRegistry instantiates every instrumented component —
// sender, receiver, health tracker, UDP transport both sides, and an
// emulated link — against one registry, so Gather returns every series
// name the library can register.
func buildRepresentativeRegistry(t *testing.T) *remicss.MetricsRegistry {
	t.Helper()
	reg := remicss.NewMetricsRegistry()

	listener, err := remicss.ListenUDP([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	listener.Instrument(reg)
	links, err := remicss.DialUDP(listener.Addrs(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	udp := links[0].(*remicss.UDPLink)
	defer udp.Close()
	udp.Instrument(reg, 0)

	if _, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme:   remicss.NewSharingScheme(nil),
		Clock:    remicss.WallClock,
		OnSymbol: func(uint64, []byte, time.Duration) {},
		Metrics:  reg,
	}); err != nil {
		t.Fatal(err)
	}
	tracker, err := remicss.NewHealthTracker(remicss.HealthConfig{}, 1, remicss.WallClock, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A resolve-mode chooser registers the schedule-cache and warm-solve
	// series plus the chooser's resolve-error counter.
	resolveSet := remicss.ChannelSet{{Risk: 0.2, Loss: 0.01, Delay: time.Millisecond, Rate: 1000}}
	if _, err := remicss.NewHealthChooser(1, 1, tracker, rand.New(rand.NewSource(2)),
		remicss.ResolveSchedule(resolveSet, remicss.Correlation{}, remicss.ObjectiveRisk)); err != nil {
		t.Fatal(err)
	}
	chooser, err := remicss.NewDynamicChooser(1, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  remicss.NewSharingScheme(nil),
		Chooser: chooser,
		Clock:   remicss.WallClock,
		Metrics: reg,
		Health:  tracker,
	}, links); err != nil {
		t.Fatal(err)
	}

	eng := netem.NewEngine()
	link, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1000}, rand.New(rand.NewSource(1)), func([]byte, time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	link.Instrument(reg, nil, 0)

	// The leakage meter registers the remicss_privacy_* series eagerly at
	// construction, before any symbol is scored.
	remicss.NewLeakageMeter(remicss.LeakageConfig{}, 1, reg, nil)

	// The session gateway registers the remicss_gateway_* series: the
	// dispatch-path drop counters at construction, the per-tenant pair (and
	// the cap counter) on first registration under a tenant.
	gw := remicss.NewGateway(remicss.GatewayConfig{Shards: 4, Metrics: reg})
	if _, err := gw.Register(1, "tenant-a", func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// seriesNameRe matches concrete series names in README prose/tables;
// wildcard mentions like `remicss_sender_*` deliberately do not match.
var seriesNameRe = regexp.MustCompile("`((?:remicss|udp|netem|lp)_[a-z0-9_]+)(?:\\{[a-z]+\\})?`")

// TestReadmeMetricTableMatchesRegistry diffs the README metric reference
// against a live registry covering every instrumented component, in both
// directions: a series the code registers must be documented, and a
// documented series must exist in the code.
func TestReadmeMetricTableMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range seriesNameRe.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no series names found in README.md — metric reference table missing?")
	}

	registered := map[string]bool{}
	for _, s := range buildRepresentativeRegistry(t).Gather() {
		registered[s.Name] = true
	}
	if len(registered) == 0 {
		t.Fatal("representative registry is empty")
	}

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("series %s is registered but missing from the README metric reference", name)
	}
	for _, name := range stale {
		t.Errorf("series %s is documented in README but no component registers it", name)
	}
}
