package remicss

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
	"remicss/internal/obs"
	"remicss/internal/schedule"
)

// TestHealthChooserResolveCorrelated: the correlated resolve mode must keep
// every invariant of the independent path — threshold floor k >= ⌊κ⌋, masks
// restricted to writable channels, failover re-solves, cache hits on
// recovery — while projecting the shared-risk groups onto the survivor set.
func TestHealthChooserResolveCorrelated(t *testing.T) {
	set := core.Set{
		{Risk: 0.1, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 1000},
		{Risk: 0.2, Loss: 0.02, Delay: 20 * time.Millisecond, Rate: 800},
		{Risk: 0.3, Loss: 0.05, Delay: 30 * time.Millisecond, Rate: 600},
		{Risk: 0.15, Loss: 0.03, Delay: 15 * time.Millisecond, Rate: 900},
	}
	corr := core.Correlation{Groups: []core.RiskGroup{
		{Mask: 0b0011, RiskRho: 0.7, LossRho: 0.5},
	}}
	clock := &fakeClock{}
	reg := obs.NewRegistry()
	tr, err := NewHealthTracker(HealthConfig{}, 4, clock.Now, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const kappa, mu = 2, 3
	ch, err := NewHealthChooser(kappa, mu, tr, rand.New(rand.NewSource(5)),
		Resolve(set, corr, schedule.ObjectiveRisk))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 4)
	fakes := make([]*healthLink, 4)
	for i := range links {
		fakes[i] = &healthLink{writable: true, accept: true}
		links[i] = fakes[i]
	}
	check := func(label string, excluded ...int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			k, mask, ok := ch.Choose(links)
			if !ok {
				t.Fatalf("%s: stalled", label)
			}
			if k < 2 {
				t.Fatalf("%s: threshold %d below floor 2", label, k)
			}
			if k > bits.OnesCount32(mask) {
				t.Fatalf("%s: k=%d > |M|=%d", label, k, bits.OnesCount32(mask))
			}
			for _, e := range excluded {
				if mask&(1<<uint(e)) != 0 {
					t.Fatalf("%s: mask %b uses excluded channel %d", label, mask, e)
				}
			}
		}
		if err := ch.ResolveErr(); err != nil {
			t.Fatalf("%s: resolve error: %v", label, err)
		}
	}
	check("full set")
	// Channel 1 — a group member — fails: the projection drops it from the
	// group and the LP re-solves over the 3 survivors.
	fakes[1].writable = false
	check("group member down", 1)
	// Channel 0 too: the whole group is gone and the projected model is
	// independent; still solvable at exactly ⌊κ⌋ survivors.
	fakes[0].writable = false
	check("group gone", 0, 1)
	// Recovery past the probe backoff revisits the full-set state, which
	// must be a correlated cache hit, not a fresh solve.
	clock.now = 10 * time.Second
	for _, f := range fakes {
		f.writable = true
	}
	check("restored")
	if hits := counterOn(t, reg, "remicss_schedule_cache_hits_total"); hits == 0 {
		t.Error("restored correlated resolve missed the schedule cache")
	}
}

// An out-of-range shared-risk group must be rejected at construction, not
// at first resolve.
func TestResolveCorrelatedValidates(t *testing.T) {
	set := core.Set{
		{Risk: 0.1, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 1000},
		{Risk: 0.2, Loss: 0.02, Delay: 20 * time.Millisecond, Rate: 800},
	}
	corr := core.Correlation{Groups: []core.RiskGroup{
		{Mask: 0b0110, RiskRho: 0.5}, // bit 2 out of range for n=2
	}}
	clock := &fakeClock{}
	tr, err := NewHealthTracker(HealthConfig{}, 2, clock.Now, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewHealthChooser(1, 2, tr, rand.New(rand.NewSource(1)),
		Resolve(set, corr, schedule.ObjectiveRisk))
	if err == nil {
		t.Fatal("out-of-range group accepted")
	}
}
