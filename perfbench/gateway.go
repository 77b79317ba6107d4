package main

import (
	"fmt"
	"math/rand" //lint:allow insecure-rand generates workload inputs and the schedule dither from the seed argument; shares draw from the DRBG
	"runtime"
	"time"

	"remicss"
	"remicss/internal/obs"
)

// gateway-mux: one gateway holding gatewaySessions registered sessions, of
// which gatewayActive exchange symbols over the pool's shared sockets.
const (
	gatewaySessions = 100_000
	gatewayActive   = 256
	gatewayChannels = 3
	gatewayKappa    = 3
	gatewayPayload  = 256
	gatewayPayloads = 1024
	gatewayTenants  = 16
	gatewaySetups   = 5
	// gatewayBurst caps the symbols sent between two pool flushes.
	gatewayBurst = 32
)

func runGateway(cfg config, rep *report) error {
	in := newGatewayInputs(cfg.seed)
	return runTransfer(cfg, rep, transferSpec{
		setups:     gatewaySetups,
		slots:      gatewayActive,
		everyShare: true,
		build: func(tr *tracker, t *tracer) (transferEnv, error) {
			return buildGateway(in, tr, t)
		},
		notApplicable: []string{
			"schedule.lookups_per_op", "schedule.cache_hit_ratio", "schedule.evictions_per_op",
			"lp.warm_solves_per_op", "lp.cold_solves_per_op", "lp.pivots_per_solve",
		},
	})
}

// gatewayInputs is everything the seed determines: which session IDs are
// active, and the payloads.
type gatewayInputs struct {
	seed     int64
	active   []uint64
	payloads [][]byte
	tenants  []string
}

func newGatewayInputs(seed int64) *gatewayInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &gatewayInputs{seed: seed, payloads: make([][]byte, gatewayPayloads)}
	for i := range in.payloads {
		in.payloads[i] = make([]byte, gatewayPayload)
		rng.Read(in.payloads[i])
	}
	for _, p := range rng.Perm(gatewaySessions)[:gatewayActive] {
		in.active = append(in.active, uint64(p+1))
	}
	for i := 0; i < gatewayTenants; i++ {
		in.tenants = append(in.tenants, fmt.Sprintf("tenant-%d", i))
	}
	return in
}

// strayCounter counts datagrams that reached an idle session's handler.
const strayCounter = "perfbench_idle_strays_total"

type gatewayEnv struct {
	in      *gatewayInputs
	t       *tracer
	reg     *remicss.MetricsRegistry
	lis     *remicss.UDPListener
	pool    *remicss.GatewayPool
	senders []*remicss.Sender
	strays  *obs.Counter
	next    int
	ticker  *time.Ticker
	ready   sessionQueue
	expired []int
	lost    []int
}

// buildGateway is the gateway set-up: receive sockets and the session
// table with every registration, the send pool, and a sender and receiver
// per active session, with metrics and an event trace attached.
func buildGateway(in *gatewayInputs, tr *tracker, t *tracer) (env *gatewayEnv, err error) {
	env = &gatewayEnv{in: in, t: t, reg: remicss.NewMetricsRegistry()}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	events := remicss.NewEventTrace(4096)
	env.strays = env.reg.Counter(strayCounter)
	addrs := make([]string, gatewayChannels)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	if env.lis, err = remicss.ListenUDP(addrs); err != nil {
		return nil, err
	}
	env.lis.Instrument(env.reg)
	gw := remicss.NewGateway(remicss.GatewayConfig{Metrics: env.reg})

	var scheme remicss.SharingScheme = remicss.NewSharingScheme(shareRandom(t))
	if t != nil {
		if scheme, err = newTracedScheme(scheme, t); err != nil {
			return nil, err
		}
	}
	handlers := make(map[uint64]func([]byte), gatewayActive)
	for j, id := range in.active {
		onSymbol := func(seq uint64, payload []byte, _ time.Duration) { tr.deliver(j, seq, payload) }
		if t != nil {
			onSymbol = t.deliver(onSymbol)
		}
		recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
			Scheme:   scheme,
			Clock:    remicss.WallClock,
			OnSymbol: onSymbol,
			Metrics:  env.reg,
			Trace:    events,
		})
		if err != nil {
			return nil, err
		}
		handlers[id] = recv.HandleDatagram
		if t != nil {
			handlers[id] = t.ingestChild(spanHandle, recv.HandleDatagram)
		}
	}
	idle := func([]byte) { env.strays.Inc() }
	for id := uint64(1); id <= gatewaySessions; id++ {
		h, ok := handlers[id]
		if !ok {
			h = idle
		}
		tenant := in.tenants[id%gatewayTenants]
		if t != nil {
			t.main.begin(spanRegister)
		}
		_, err := gw.Register(id, tenant, h)
		if t != nil {
			t.main.end()
		}
		if err != nil {
			return nil, err
		}
	}
	if t != nil {
		env.lis.ServeBatch(t.ingestRoot(spanDispatch, gw.Dispatch))
	} else {
		gw.Attach(env.lis)
	}

	if env.pool, err = remicss.DialGatewayPool(env.lis.Addrs(), remicss.GatewayPoolConfig{Metrics: env.reg}); err != nil {
		return nil, err
	}
	links := env.pool.SessionLinks()
	if t != nil {
		links = t.links(links)
	}
	for j, id := range in.active {
		chooser, err := remicss.NewDynamicChooser(gatewayKappa, gatewayKappa, rand.New(rand.NewSource(in.seed+int64(j))))
		if err != nil {
			return nil, err
		}
		if t != nil {
			chooser = tracedChooser{chooser, t}
		}
		s, err := remicss.NewSender(remicss.SenderConfig{
			Scheme:  scheme,
			Chooser: chooser,
			Clock:   remicss.WallClock,
			Metrics: env.reg,
			Trace:   events,
			Session: id,
		}, links)
		if err != nil {
			return nil, err
		}
		env.senders = append(env.senders, s)
	}
	env.ticker = time.NewTicker(tick)
	return env, nil
}

func (e *gatewayEnv) close() {
	if e.ticker != nil {
		e.ticker.Stop()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if e.lis != nil {
		e.lis.Close()
	}
}

func (e *gatewayEnv) metrics() *remicss.MetricsRegistry { return e.reg }
func (e *gatewayEnv) shareThreshold() int               { return gatewayKappa }

func (e *gatewayEnv) flush() {
	if e.t != nil {
		e.t.main.begin(spanFlush)
		e.pool.Flush()
		e.t.main.end()
		return
	}
	e.pool.Flush()
}

// send sends payload p on active session j, as a new op or, with resend,
// as the lost op's next symbol. A send error settles the op as failed.
func (e *gatewayEnv) send(tr *tracker, j int, p []byte, resend bool) error {
	s := e.senders[j]
	seq := s.Seq()
	if resend {
		tr.reopen(j, seq)
	} else {
		tr.open(j, seq, p)
	}
	var err error
	if e.t != nil {
		err = e.t.send(s, e.in.active[j], seq, p)
	} else {
		err = s.Send(p)
	}
	if err != nil {
		tr.abort(j)
	}
	return err
}

func (e *gatewayEnv) sendVerify(tr *tracker, i int) error {
	return e.send(tr, i%gatewayActive, e.in.payloads[i%gatewayPayloads], false)
}

// load keeps one op in flight per active session until d has passed, then
// waits for the last ones to settle. Sessions whose symbol settled or was
// lost queue up; each round sends at most gatewayBurst of them (a lost op's
// payload again, else the next payload) and flushes the pool once, then
// collects whatever settled meanwhile, blocking only when no session is
// ready. After d only lost ops are sent.
func (e *gatewayEnv) load(tr *tracker, d time.Duration) error {
	end := nowNs() + int64(d)
	outstanding := 0
	q := &e.ready
	q.reset()
	for j := range e.senders {
		q.push(j)
	}
	for {
		sending := nowNs() < end
		burst := 0
		for burst < gatewayBurst && q.n > 0 {
			j := q.pop()
			p, resend := tr.lostPayload(j)
			if !resend {
				if !sending {
					continue
				}
				p = e.in.payloads[e.next%gatewayPayloads]
				e.next++
			}
			burst++
			if e.send(tr, j, p, resend) == nil {
				outstanding++
			} else {
				q.push(j) // a failed send is counted; the session tries again
			}
		}
		if burst > 0 {
			e.flush()
			runtime.Gosched()
		}
		if outstanding == 0 && q.n == 0 && !sending {
			return nil
		}
		tr.poll()
		if q.n == 0 {
			select {
			case j := <-tr.done:
				q.push(j)
				outstanding--
			case <-e.ticker.C:
			}
		}
	drain:
		for {
			select {
			case j := <-tr.done:
				q.push(j)
				outstanding--
			default:
				break drain
			}
		}
		e.expired, e.lost = tr.expire(deadline, e.expired[:0], e.lost[:0])
		for _, j := range e.expired {
			q.push(j)
		}
		for _, j := range e.lost {
			q.pushFront(j)
		}
		outstanding -= len(e.expired) + len(e.lost)
	}
}

// sessionQueue is a FIFO of ready session indices; it never holds more
// than the active sessions.
type sessionQueue struct {
	buf     [gatewayActive]int
	head, n int
}

func (q *sessionQueue) reset() { q.head, q.n = 0, 0 }

func (q *sessionQueue) push(j int) {
	q.buf[(q.head+q.n)%gatewayActive] = j
	q.n++
}

// pushFront queues j ahead of the others: a lost op is sent again first,
// so that its resends fit in its deadline.
func (q *sessionQueue) pushFront(j int) {
	q.head = (q.head + gatewayActive - 1) % gatewayActive
	q.buf[q.head] = j
	q.n++
}

func (q *sessionQueue) pop() int {
	j := q.buf[q.head]
	q.head = (q.head + 1) % gatewayActive
	q.n--
	return j
}
