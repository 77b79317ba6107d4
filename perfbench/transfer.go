package main

import (
	"fmt"
	"strings"
	"time"

	"remicss"
)

const (
	// deadline is how long an op may take from its first Send to verified
	// delivery before it counts as failed. It is far above the workloads'
	// p99.9 and the pauses a shared host imposes. On gateway-mux lost
	// symbols are found sooner, by overtaking (overtakeMargin) or
	// resendAfter, and sent again; on xfer-hmac one lost share in three is
	// spare.
	deadline = time.Second
	// tick is how often the generator looks for symbols past their deadline.
	tick = 2 * time.Millisecond
	// verifySymbols is how many payloads the digest pass delivers.
	verifySymbols = 512
)

// transferEnv is a set-up transfer workload, ready for its first op.
type transferEnv interface {
	// load runs the closed loop for d, opening and settling ops on tr.
	load(tr *tracker, d time.Duration) error
	// sendVerify sends payload i of the digest pass.
	sendVerify(tr *tracker, i int) error
	flush()
	metrics() *remicss.MetricsRegistry
	// shareThreshold is k, the shares a symbol needs.
	shareThreshold() int
	// close releases the sockets and waits for the reader goroutines.
	close()
}

// transferSpec describes one transfer workload to the shared driver.
type transferSpec struct {
	setups int
	// slots sizes the tracker.
	slots int
	// everyShare is true when a symbol needs all its shares (κ = μ), which
	// lets later deliveries reveal a lost symbol, and the generator sends
	// lost symbols again.
	everyShare bool
	build      func(tr *tracker, t *tracer) (transferEnv, error)
	// notApplicable names the per-layer metrics this workload never moves.
	notApplicable []string
}

// runTransfer is the driver both transfer workloads share: repeated set-up,
// digest pass, warm-up, the measured untraced pass, and for -trace 1 a
// traced pass of the same length.
func runTransfer(cfg config, rep *report, spec transferSpec) error {
	tr := newTracker(spec.slots, spec.everyShare)
	d := measuredSeconds(cfg)
	env, setups, heap, err := repeatSetup(spec.setups,
		func() (transferEnv, error) { return spec.build(tr, nil) },
		func(e transferEnv) { e.close() })
	if err != nil {
		return err
	}
	plain, err := measureTransfer(env, tr, nil, d)
	env.close()
	if err != nil {
		return err
	}
	rep.digest = plain.digest
	rep.attempted, rep.failed = plain.ph.attempted, plain.ph.failed
	rep.endToEnd = plain.ph.endToEnd(setups, heap)
	describeSetup(rep, setups)
	plain.describe(rep, "untraced")
	if plain.ph.mismatches > 0 {
		rep.problem("%d delivered payloads differ from their originals", plain.ph.mismatches)
	}
	if !cfg.trace {
		return nil
	}

	t := newTracer()
	tenv, err := spec.build(tr, t)
	if err != nil {
		return err
	}
	setupSpans := t.reset()
	traced, err := measureTransfer(tenv, tr, t, d)
	tenv.close()
	if err != nil {
		return err
	}
	if traced.ph.mismatches > 0 {
		rep.problem("traced pass: %d delivered payloads differ from their originals", traced.ph.mismatches)
	}
	if traced.digest != plain.digest {
		rep.problem("traced pass digest %s differs from untraced %s", traced.digest, plain.digest)
	}
	traced.describe(rep, "traced")
	rep.attempted, rep.failed = traced.ph.attempted, traced.ph.failed
	rep.perLayer = layerMetrics(traced, setupSpans, tenv.shareThreshold())
	addOverheadLayers(rep.perLayer, traced.ph, plain.ph, traced.rootNs)
	rep.notApplicable = map[string]string{}
	for _, name := range spec.notApplicable {
		rep.notApplicable[name] = notApplicableWhy[strings.SplitN(name, ".", 2)[0]]
	}
	return t.writeSpans(spanPath(cfg))
}

func spanPath(cfg config) string {
	return fmt.Sprintf("%s/spans-%s.jsonl", cfg.state, cfg.workload)
}

// notApplicableWhy says, per layer, why a transfer never calls it.
var notApplicableWhy = map[string]string{
	"gateway":  "no gateway: the session owns its sockets",
	"schedule": "DynamicChooser picks shares without the schedule cache",
	"lp":       "no schedule cache, so no solver",
}

// transferPass is one measured pass and what it moved: the counters the
// program exports and, when traced, the span totals.
type transferPass struct {
	ph       *phase
	digest   string
	counters map[string]int64
	spans    [numSpanKinds]kindTotals
	rootNs   int64
}

// measureTransfer runs the digest pass, a warm-up and the measured pass;
// with a tracer it resets the span totals as the measured pass starts.
func measureTransfer(env transferEnv, tr *tracker, t *tracer, d time.Duration) (transferPass, error) {
	var p transferPass
	digest, err := tr.verifyDigest(verifySymbols, func(i int) error { return env.sendVerify(tr, i) }, env.flush)
	if err != nil {
		return p, err
	}
	p.digest = digest
	warm := tr.reset(0)
	start := nowNs()
	if err := env.load(tr, warmup(d)); err != nil {
		return p, err
	}
	rate := float64(warm.completed()) / time.Duration(nowNs()-start).Seconds()
	p.ph = tr.reset(int(rate*d.Seconds()*1.5) + 4096)
	if t != nil {
		t.reset()
	}
	before := counterSums(env.metrics())
	tr.meter = startMeter(p.ph, d, tr.counts)
	err = env.load(tr, d)
	tr.meter.stop()
	tr.meter = nil
	if err != nil {
		return p, err
	}
	if t != nil {
		p.spans, p.rootNs = t.totals(), t.rootNs()
	}
	// Let the spare shares of the last symbols land before reading the
	// transport counters.
	time.Sleep(20 * time.Millisecond)
	p.counters = counterDelta(counterSums(env.metrics()), before)
	p.ph.sortLatencies()
	return p, nil
}

// warmup is the untimed load before a measured pass: long enough for pools,
// socket buffers and the GC pacer to settle.
func warmup(d time.Duration) time.Duration {
	return min(time.Second, d/4)
}

// describe prints the pass's report-only lines and its loss attribution.
func (p transferPass) describe(rep *report, label string) {
	p.ph.describe(rep, label, true)
	c := p.counters
	drops := c["udp_sent_datagrams_total"] - c["udp_recv_datagrams_total"]
	causes := []struct {
		name string
		n    int64
	}{
		{"kernel_drops", drops},
		{"sender_stalled_symbols", c["remicss_sender_symbols_stalled_total"]},
		{"sender_dropped_shares", c["remicss_sender_shares_dropped_total"]},
		{"paced_drops", c["udp_paced_drops_total"]},
		{"socket_errors", c["udp_socket_errors_total"]},
		{"receiver_evicted_symbols", c["remicss_receiver_symbols_evicted_total"]},
		{"receiver_invalid_shares", c["remicss_receiver_shares_invalid_total"]},
		{"receiver_combine_failures", c["remicss_receiver_combine_failures_total"]},
		{"gateway_unknown_session", c["remicss_gateway_unknown_session_total"]},
		{"gateway_malformed", c["remicss_gateway_malformed_total"]},
		{"idle_session_strays", c[strayCounter]},
		{"delivered_after_settling", p.ph.late},
	}
	var covered int64
	line := label + " loss_attribution"
	for _, cause := range causes {
		if cause.n > 0 {
			covered += cause.n
		}
		line += fmt.Sprintf(" %s=%d", cause.name, cause.n)
	}
	line += fmt.Sprintf(" late_shares=%d duplicate_shares=%d", c["remicss_receiver_shares_late_total"], c["remicss_receiver_shares_duplicate_total"])
	rep.line("%s unattributed=%d (failed symbols no counted cause covers)", line, max(0, p.ph.failed-covered))
	rep.line("%s resent_symbols %d count (lost symbols whose payload was sent again as the same op)", label, p.ph.resent)
}

// counterSums totals every counter series by name, across label sets.
func counterSums(reg *remicss.MetricsRegistry) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range reg.Gather() {
		if s.Type == "counter" {
			out[s.Name] += s.Value
		}
	}
	return out
}

func counterDelta(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced transfer pass
// from its span totals and the counters the program exports; k is the
// shares a symbol needs.
func layerMetrics(traced transferPass, setup [numSpanKinds]kindTotals, k int) map[string]metric {
	tot := traced.spans
	c := traced.counters
	perOp := func(n int64) float64 { return float64(n) / float64(traced.ph.attempted) }
	// Link.Send issues one write per datagram and ServeConcurrent one read;
	// only batched writes and reads advance the batch counters.
	sent, recv := float64(c["udp_sent_datagrams_total"]), float64(c["udp_recv_datagrams_total"])
	sendCalls, recvCalls := float64(c["udp_batch_writes_total"]), float64(c["udp_batch_reads_total"])
	if sendCalls == 0 {
		sendCalls = sent
	}
	if recvCalls == 0 {
		recvCalls = recv
	}
	out := zeroLayers()
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	set("remicss.send.self_us", perCall(tot[spanSend].selfNs, tot[spanSend]))
	set("remicss.choose_us", perCall(tot[spanChoose].totalNs, tot[spanChoose]))
	set("sharing.split_us", perCall(tot[spanSplit].selfNs, tot[spanSplit]))
	set("sharing.combine_us", perCall(tot[spanCombine].totalNs, tot[spanCombine]))
	set("drbg.read_us", perCall(tot[spanDRBG].totalNs, tot[spanDRBG]))
	set("drbg.bytes_per_op", perOp(tot[spanDRBG].bytes))
	set("udptrans.send_us", perCall(tot[spanLink].totalNs, tot[spanLink]))
	set("udptrans.send_syscalls_per_datagram", sendCalls/sent)
	set("udptrans.recv_syscalls_per_datagram", recvCalls/recv)
	set("udptrans.kernel_drops", sent-recv)
	set("gateway.register_us", perCall(setup[spanRegister].totalNs, setup[spanRegister]))
	set("gateway.flush_us", perCall(tot[spanFlush].totalNs, tot[spanFlush]))
	set("gateway.dispatch.self_us", perCall(tot[spanDispatch].selfNs, tot[spanDispatch]))
	set("remicss.handle.self_us", perCall(tot[spanHandle].selfNs, tot[spanHandle]))
	set("remicss.useful_share_ratio", float64(c["remicss_receiver_symbols_delivered_total"]*int64(k))/float64(c["remicss_receiver_datagrams_total"]))
	set("remicss.late_shares_per_op", perOp(c["remicss_receiver_shares_late_total"]))
	set("remicss.duplicate_shares_per_op", perOp(c["remicss_receiver_shares_duplicate_total"]))
	set("remicss.evicted_symbols_per_op", perOp(c["remicss_receiver_symbols_evicted_total"]))
	set("remicss.invalid_shares_per_op", perOp(c["remicss_receiver_shares_invalid_total"]))
	return out
}

// perCall is ns spread over the span kind's calls, in microseconds; 0 when
// the workload never made the call.
func perCall(ns int64, t kindTotals) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(ns) / float64(t.calls) / 1e3
}
