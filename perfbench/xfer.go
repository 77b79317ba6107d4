package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand" //lint:allow insecure-rand generates workload inputs and the schedule dither from the seed argument; shares draw from the DRBG
	"time"

	"remicss"
)

// xfer-hmac: the paper's single session with the authentication the README
// recommends, assembled from the calls Connect and Serve make.
const (
	xferChannels = 3
	xferKappa    = 2
	xferMu       = 3
	xferPayload  = 1400
	// xferWindow is the number of symbols in flight. Two let the
	// generator's next Send overlap the receiver's work on the previous
	// symbol. The generator is the bottleneck, so more in flight adds no
	// throughput: at 4 and above the median falls on the knee of a queueing
	// tail and moves by a quarter between runs.
	xferWindow = 2
	// xferPayloads distinct seeded payloads are cycled through.
	xferPayloads = 256
	// xferSlots is how many later symbols a pending one may wait for: a
	// slot reused while still pending fails its old symbol. At full rate
	// that is a third of the deadline; in a pause of the host no symbols
	// are sent, so a pause cannot fail one this way.
	xferSlots  = 8192
	xferSetups = 51
)

func runXfer(cfg config, rep *report) error {
	in := newXferInputs(cfg.seed)
	return runTransfer(cfg, rep, transferSpec{
		setups: xferSetups,
		slots:  xferSlots,
		build: func(tr *tracker, t *tracer) (transferEnv, error) {
			return buildXfer(in, tr, t)
		},
		notApplicable: []string{
			"gateway.register_us", "gateway.flush_us", "gateway.dispatch.self_us",
			"schedule.lookups_per_op", "schedule.cache_hit_ratio", "schedule.evictions_per_op",
			"lp.warm_solves_per_op", "lp.cold_solves_per_op", "lp.pivots_per_solve",
		},
	})
}

// xferInputs is everything the seed determines.
type xferInputs struct {
	seed     int64
	key      []byte
	payloads [][]byte
}

func newXferInputs(seed int64) *xferInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &xferInputs{seed: seed, payloads: make([][]byte, xferPayloads)}
	for i := range in.payloads {
		in.payloads[i] = make([]byte, xferPayload)
		rng.Read(in.payloads[i])
	}
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	key := sha256.Sum256(append([]byte("perfbench xfer-hmac key "), s[:]...))
	in.key = key[:]
	return in
}

type xferEnv struct {
	in     *xferInputs
	t      *tracer
	lis    *remicss.UDPListener
	links  []remicss.Link
	sender *remicss.Sender
	reg    *remicss.MetricsRegistry
	// next is the index of the next payload the generator sends.
	next    int
	ticker  *time.Ticker
	expired []int
}

// buildXfer is the session set-up: receiver sockets and reader goroutines,
// sender sockets, chooser, scheme and sender, all with metrics on.
func buildXfer(in *xferInputs, tr *tracker, t *tracer) (env *xferEnv, err error) {
	env = &xferEnv{in: in, t: t, reg: remicss.NewMetricsRegistry()}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	scheme, err := remicss.NewAuthenticatedScheme(remicss.NewSharingScheme(shareRandom(t)), in.key)
	if err != nil {
		return nil, err
	}
	if t != nil {
		if scheme, err = newTracedScheme(scheme, t); err != nil {
			return nil, err
		}
	}
	onSymbol := func(seq uint64, payload []byte, _ time.Duration) {
		tr.deliver(int(seq%xferSlots), seq, payload)
	}
	if t != nil {
		onSymbol = t.deliver(onSymbol)
	}
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme:   scheme,
		Clock:    remicss.WallClock,
		OnSymbol: onSymbol,
		Metrics:  env.reg,
	})
	if err != nil {
		return nil, err
	}
	addrs := make([]string, xferChannels)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	if env.lis, err = remicss.ListenUDP(addrs); err != nil {
		return nil, err
	}
	env.lis.Instrument(env.reg)
	handle := recv.HandleDatagram
	if t != nil {
		handle = t.ingestRoot(spanHandle, handle)
	}
	env.lis.ServeConcurrent(handle)

	if env.links, err = remicss.DialUDP(env.lis.Addrs(), nil, 0); err != nil {
		return nil, err
	}
	for i, l := range env.links {
		l.(*remicss.UDPLink).Instrument(env.reg, i)
	}
	chooser, err := remicss.NewDynamicChooser(xferKappa, xferMu, rand.New(rand.NewSource(in.seed)))
	if err != nil {
		return nil, err
	}
	links := env.links
	if t != nil {
		chooser = tracedChooser{chooser, t}
		links = t.links(links)
	}
	env.sender, err = remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   remicss.WallClock,
		Metrics: env.reg,
	}, links)
	if err != nil {
		return nil, err
	}
	env.ticker = time.NewTicker(tick)
	return env, nil
}

func (e *xferEnv) close() {
	if e.ticker != nil {
		e.ticker.Stop()
	}
	for _, l := range e.links {
		l.(*remicss.UDPLink).Close()
	}
	if e.lis != nil {
		e.lis.Close()
	}
}

func (e *xferEnv) metrics() *remicss.MetricsRegistry { return e.reg }
func (e *xferEnv) shareThreshold() int               { return xferKappa }
func (e *xferEnv) flush()                            {}

// send opens a slot for the sender's next sequence number and sends
// payload p. It reports whether opening displaced a symbol still pending.
func (e *xferEnv) send(tr *tracker, p []byte) (bool, error) {
	seq := e.sender.Seq()
	i := int(seq % xferSlots)
	displaced := tr.open(i, seq, p)
	var err error
	if e.t != nil {
		err = e.t.send(e.sender, 0, seq, p)
	} else {
		err = e.sender.Send(p)
	}
	if err != nil {
		tr.abort(i)
	}
	return displaced, err
}

func (e *xferEnv) sendVerify(tr *tracker, i int) error {
	_, err := e.send(tr, e.in.payloads[i%xferPayloads])
	return err
}

// load keeps xferWindow symbols in flight until d has passed, then waits
// for the last ones to settle.
func (e *xferEnv) load(tr *tracker, d time.Duration) error {
	end := nowNs() + int64(d)
	inflight := 0
	for {
		sending := nowNs() < end
		for sending && inflight < xferWindow {
			displaced, err := e.send(tr, e.in.payloads[e.next%xferPayloads])
			e.next++
			if displaced {
				inflight--
			}
			if err == nil {
				inflight++
			}
		}
		if !sending && inflight == 0 {
			return nil
		}
		tr.poll()
		select {
		case <-tr.done:
			inflight--
		case <-e.ticker.C:
			e.expired, _ = tr.expire(deadline, e.expired[:0], nil)
			inflight -= len(e.expired)
		}
	}
}
