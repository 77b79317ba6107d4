package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes, on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// processCPU is the user plus system CPU the process has used so far, over
// all threads: sender, receivers, runtime and GC alike.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only EFAULT/EINVAL, which a valid call cannot produce
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap is the heap still reachable after garbage collection. Two cycles
// empty the sync.Pool victim caches, which survive one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureWindows is how many windows a measured phase is cut into. The
// end-to-end metrics are medians over the windows, so a burst of load
// from outside the benchmark moves one window, not the run's figure.
const measureWindows = 20

// window is a cumulative snapshot taken at a window boundary.
type window struct {
	ns                int64
	attempted, failed int64
	lat               int
	cpu               time.Duration
	alloc             uint64
}

// meter brackets one measured phase and snapshots it at every window
// boundary. counts reads the phase's op counters and latency sample count.
type meter struct {
	ph           *phase
	start, every int64
	next         int64
	counts       func() (attempted, failed int64, lat int)
}

func startMeter(p *phase, d time.Duration, counts func() (int64, int64, int)) *meter {
	runtime.GC()
	m := &meter{ph: p, every: int64(d) / measureWindows, counts: counts}
	m.start = nowNs()
	m.next = m.start + m.every
	m.snap(m.start)
	return m
}

func (m *meter) snap(now int64) {
	a, f, l := m.counts()
	m.ph.windows = append(m.ph.windows, window{now - m.start, a, f, l, processCPU(), totalAlloc()})
}

// poll takes a snapshot when a window boundary has passed; the generator
// calls it between ops.
func (m *meter) poll() {
	if now := nowNs(); now >= m.next {
		m.snap(now)
		m.next += m.every
	}
}

// stop takes the closing snapshot, folding a last window shorter than half
// a window (the drain after the final boundary) into the one before it.
func (m *meter) stop() {
	w := m.ph.windows
	if now := nowNs(); len(w) > 1 && now-m.start-w[len(w)-1].ns < m.every/2 {
		m.ph.windows = w[:len(w)-1]
	}
	m.snap(nowNs())
	w = m.ph.windows
	first, last := w[0], w[len(w)-1]
	m.ph.elapsed = time.Duration(last.ns - first.ns)
	m.ph.cpu = last.cpu - first.cpu
	m.ph.alloc = last.alloc - first.alloc
}

// phase is what one measured phase observed.
type phase struct {
	attempted, failed int64
	// late counts deliveries that arrived after their op had already been
	// counted failed or sent again.
	late int64
	// resent counts sends of a lost symbol's payload again; the op stays
	// the same.
	resent        int64
	mismatches    int64
	verifiedBytes int64
	elapsed, cpu  time.Duration
	alloc         uint64
	// lat holds the latency of every completed op in nanoseconds, in
	// completion order until sortLatencies.
	lat     []int64
	windows []window
	// perWindow holds the windowed end-to-end metrics, computed by
	// sortLatencies.
	perWindow map[string][]float64
}

func (p *phase) completed() int64 { return p.attempted - p.failed }

// sortLatencies computes each window's metrics from its own latency
// samples, then sorts all samples for the whole-phase percentiles.
func (p *phase) sortLatencies() {
	p.perWindow = map[string][]float64{}
	for i := 1; i < len(p.windows); i++ {
		a, b := p.windows[i-1], p.windows[i]
		ops := float64(b.attempted - a.attempted)
		if ops == 0 {
			continue
		}
		seg := append([]int64(nil), p.lat[a.lat:b.lat]...)
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		done := ops - float64(b.failed-a.failed)
		add := func(name string, v float64) { p.perWindow[name] = append(p.perWindow[name], v) }
		add("throughput_ops_per_s", done/time.Duration(b.ns-a.ns).Seconds())
		add("latency_p50_us", percentile(seg, 0.50)/1e3)
		add("latency_p75_us", percentile(seg, 0.75)/1e3)
		add("latency_p90_us", percentile(seg, 0.90)/1e3)
		add("latency_p99_us", percentile(seg, 0.99)/1e3)
		add("cpu_us_per_op", float64((b.cpu-a.cpu).Nanoseconds())/1e3/ops)
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
}

// endToEnd returns the gated end-to-end metrics for this phase: medians
// over its windows, except ok_fraction and alloc_bytes_per_op, which count
// the whole phase (allocation comes in GC-cycle-sized steps that a window
// cuts unevenly). Call after sortLatencies.
func (p *phase) endToEnd(setup []float64, heap uint64) map[string]metric {
	out := map[string]metric{
		"setup_s":            {median(setup), "s"},
		"ok_fraction":        {float64(p.completed()) / float64(p.attempted), "ratio"},
		"alloc_bytes_per_op": {float64(p.alloc) / float64(p.attempted), "B"},
		"heap_mb":            {float64(heap) / 1e6, "MB"},
	}
	for _, m := range endToEndNames {
		if vs, ok := p.perWindow[m.name]; ok {
			out[m.name] = metric{median(vs), m.unit}
		}
	}
	return out
}

// describe adds the report-only end-to-end lines: goodput in the paper's
// unit, the failed fraction and the latency sample count.
func (p *phase) describe(rep *report, label string, transfer bool) {
	if transfer {
		rep.line("%s goodput_mbps %.6g Mbit/s", label, float64(p.verifiedBytes)*8/p.elapsed.Seconds()/1e6)
	} else {
		rep.line("%s goodput_mbps n/a (no payload; an op is one retune decision)", label)
	}
	rep.line("%s failed_fraction %.6g ratio (%d of %d ops; %d delivered after settling)",
		label, float64(p.failed)/float64(p.attempted), p.failed, p.attempted, p.late)
	rep.line("%s latency_samples %d count; whole phase p50 %.6g us, p90 %.6g us, p99.9 %.6g us",
		label, len(p.lat), percentile(p.lat, 0.5)/1e3, percentile(p.lat, 0.9)/1e3, percentile(p.lat, 0.999)/1e3)
	rep.line("%s latency_p99_us %.6g us (whole phase; gated are the windows' median p50 and p75, which repeat)", label, percentile(p.lat, 0.99)/1e3)
	deciles := label + " latency_deciles_us"
	for q := 0.1; q < 0.95; q += 0.1 {
		deciles += fmt.Sprintf(" %.4g", percentile(p.lat, q)/1e3)
	}
	rep.line("%s", deciles)
	rep.line("%s elapsed %.6g s, cpu %.6g s, %d windows; whole phase: %.6g ops/s, %.6g us cpu/op, %.6g B alloc/op",
		label, p.elapsed.Seconds(), p.cpu.Seconds(), len(p.windows)-1, float64(p.completed())/p.elapsed.Seconds(),
		float64(p.cpu.Nanoseconds())/1e3/float64(p.attempted), float64(p.alloc)/float64(p.attempted))
	names := make([]string, 0, len(p.perWindow))
	for n := range p.perWindow {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%s window %s", label, n)
		for _, v := range p.perWindow[n] {
			line += fmt.Sprintf(" %.4g", v)
		}
		rep.line("%s", line)
	}
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repeatSetup builds the workload's state n times from nothing, tearing
// down all but the last, and returns the last with every build's duration
// in seconds and the median live heap a build adds. The medians keep one
// slow socket bind or GC cycle from setting setup_s or heap_mb.
func repeatSetup[T any](n int, build func() (T, error), teardown func(T)) (env T, times []float64, heap uint64, err error) {
	var heaps []float64
	for i := 0; i < n; i++ {
		base := liveHeap()
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		heaps = append(heaps, float64(liveHeap())-float64(base))
		if i < n-1 {
			teardown(e)
		} else {
			env = e
		}
	}
	return env, times, uint64(max(0, median(heaps))), nil
}

// slot is one op in flight.
type slot struct {
	seq  uint64
	want []byte
	// sent is when the op's payload was first sent; its latency and
	// deadline count from there, across any resends.
	sent int64
	// last is when the op's latest symbol was sent.
	last int64
	// order counts the latest send of the op among all sends of the phase.
	order   int64
	pending bool
	// lost marks an op whose symbol was overtaken and awaits a resend.
	lost bool
}

// overtakeMargin is how many later-sent symbols must be delivered before a
// pending one counts as lost, where every share is needed (κ = μ). Every
// channel carries its shares in send order (one socket each way, one
// reader per socket), so a later symbol's completion means an earlier
// one's shares have all been handled; the margin is slack. With κ < μ a
// later symbol can complete without a stalled channel, so only the
// deadline applies.
const overtakeMargin = 64

// resendAfter is how long a symbol may stay undelivered, where every share
// is needed, before it counts as lost even though overtakeMargin later
// symbols have not yet been delivered: at the end of a phase no later
// symbols come.
const resendAfter = 10 * time.Millisecond

// tracker settles the ops of a closed loop: the generator opens a slot per
// send, the receiver's delivery callback closes it after comparing the
// delivered payload with the original, and the generator expires slots
// that passed their deadline, as failed, or that later symbols overtook, as
// lost. A lost symbol's payload is sent again as a new symbol of the same
// op, so a datagram the kernel dropped costs the op a resend rather than
// failing it, and never stalls the loop.
type tracker struct {
	mu    sync.Mutex
	slots []slot // guarded by mu
	ph    *phase // guarded by mu
	// verified, when set, collects every verified payload in delivery
	// order for the digest; the payloads belong to the benchmark once
	// OnSymbol has them. guarded by mu.
	verified *[][]byte
	// done carries the index of each completed slot to the generator. It
	// holds one entry per slot, the most that can be outstanding.
	done chan int
	// meter, when set, is polled by the generator between ops.
	meter *meter
	// overtake enables loss detection by overtaking and by resendAfter;
	// the generator sends the lost symbols again.
	overtake bool
	// sends numbers the phase's sends; lastDone is the highest order
	// delivered. guarded by mu.
	sends, lastDone int64
}

// counts reads the current phase's counters for the meter.
func (t *tracker) counts() (attempted, failed int64, lat int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ph.attempted, t.ph.failed, len(t.ph.lat)
}

// poll advances the meter, if one is running.
func (t *tracker) poll() {
	if t.meter != nil {
		t.meter.poll()
	}
}

func newTracker(slots int, overtake bool) *tracker {
	return &tracker{slots: make([]slot, slots), done: make(chan int, slots), ph: &phase{}, overtake: overtake}
}

// reset starts a new phase with room for the given number of latency
// samples, so that recording them does not allocate while measured.
func (t *tracker) reset(samples int) *phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ph = &phase{lat: make([]int64, 0, samples)}
	t.verified = nil
	t.sends, t.lastDone = 0, 0
	return t.ph
}

// open records a send about to happen on slot i. If the slot still held a
// pending or lost symbol, that symbol is failed and open reports it
// displaced.
func (t *tracker) open(i int, seq uint64, want []byte) (displaced bool) {
	t.mu.Lock()
	if t.slots[i].pending || t.slots[i].lost {
		displaced = true
		t.ph.failed++
	}
	t.sends++
	now := nowNs()
	t.slots[i] = slot{seq: seq, want: want, sent: now, last: now, order: t.sends, pending: true}
	t.ph.attempted++
	t.mu.Unlock()
	return displaced
}

// lostPayload returns the payload of slot i's op if its symbol was lost,
// for the generator to send again through reopen.
func (t *tracker) lostPayload(i int) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slots[i]
	return s.want, s.lost
}

// reopen records that slot i's lost op is about to be sent again as the
// symbol with sequence number seq.
func (t *tracker) reopen(i int, seq uint64) {
	t.mu.Lock()
	t.sends++
	s := &t.slots[i]
	s.seq, s.last, s.order, s.pending, s.lost = seq, nowNs(), t.sends, true, false
	t.ph.resent++
	t.mu.Unlock()
}

// abort settles slot i as failed when its send returned an error.
func (t *tracker) abort(i int) {
	t.mu.Lock()
	t.slots[i].pending = false
	t.ph.failed++
	t.mu.Unlock()
}

// deliver is called from the receiver's OnSymbol.
func (t *tracker) deliver(i int, seq uint64, payload []byte) {
	now := nowNs()
	t.mu.Lock()
	s := &t.slots[i]
	if !s.pending || s.seq != seq {
		t.ph.late++
		t.mu.Unlock()
		return
	}
	s.pending = false
	if !bytes.Equal(payload, s.want) {
		t.ph.mismatches++
		t.ph.failed++
		t.mu.Unlock()
		t.done <- i
		return
	}
	t.ph.lat = append(t.ph.lat, now-s.sent)
	t.lastDone = max(t.lastDone, s.order)
	t.ph.verifiedBytes += int64(len(payload))
	if t.verified != nil {
		*t.verified = append(*t.verified, payload)
	}
	t.mu.Unlock()
	t.done <- i
}

// expire fails every pending slot first sent more than deadline ago. Where
// every share is needed it marks lost every other pending slot overtaken by
// overtakeMargin later deliveries or sent resendAfter ago. It appends the
// slots' indices to failed and lost.
func (t *tracker) expire(deadline time.Duration, failed, lost []int) ([]int, []int) {
	now := nowNs()
	cutoff := now - int64(deadline)
	t.mu.Lock()
	overtaken, stale := int64(0), int64(math.MinInt64)
	if t.overtake {
		overtaken, stale = t.lastDone-overtakeMargin, now-int64(resendAfter)
	}
	for i := range t.slots {
		s := &t.slots[i]
		switch {
		case !s.pending:
		case s.sent < cutoff:
			s.pending = false
			t.ph.failed++
			failed = append(failed, i)
		case s.order < overtaken || s.last < stale:
			s.pending, s.lost = false, true
			lost = append(lost, i)
		}
	}
	t.mu.Unlock()
	return failed, lost
}

// verifyDigest sends count payloads one at a time, resending a payload
// whose symbol was lost, and returns the hash of the delivered bytes in
// payload order. One symbol in flight keeps the kernel's socket buffers
// from overflowing, so the digest depends only on what the program delivers.
// send(i) transmits payload i.
func (t *tracker) verifyDigest(count int, send func(i int) error, flush func()) (string, error) {
	const (
		deadline = time.Second
		attempts = 3
	)
	t.reset(count)
	verified := make([][]byte, 0, count)
	t.mu.Lock()
	t.verified = &verified
	t.mu.Unlock()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for i := 0; i < count; i++ {
		delivered := false
		for a := 0; a < attempts && !delivered; a++ {
			if err := send(i); err != nil {
				return "", fmt.Errorf("verify send %d: %w", i, err)
			}
			flush()
			timer.Reset(deadline)
			select {
			case <-t.done:
				delivered = true
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				t.expire(0, nil, nil)
			}
		}
		if !delivered {
			return "", fmt.Errorf("verify: payload %d not delivered in %d attempts", i, attempts)
		}
	}
	t.mu.Lock()
	mismatches := t.ph.mismatches
	t.verified = nil
	t.mu.Unlock()
	if mismatches > 0 {
		return "", fmt.Errorf("verify: %d delivered payloads differ from their originals", mismatches)
	}
	h := sha256.New()
	for _, p := range verified {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
