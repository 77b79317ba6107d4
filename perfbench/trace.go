package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remicss"
	"remicss/internal/drbg"
	"remicss/internal/wire"
)

// spanKind names a layer boundary the traced run times.
type spanKind uint8

const (
	spanSend     spanKind = iota // Sender.Send, called by the generator
	spanChoose                   // Chooser.Choose
	spanSplit                    // SharingScheme split (HMAC tag included)
	spanDRBG                     // drbg.Shared reads made by the split
	spanLink                     // Link.Send
	spanFlush                    // GatewayPool.Flush
	spanDispatch                 // Gateway.Dispatch
	spanHandle                   // Receiver.HandleDatagram
	spanCombine                  // SharingScheme combine (HMAC verify included)
	spanDeliver                  // the benchmark's own OnSymbol check
	spanRegister                 // Gateway.Register
	spanRetune                   // AdaptController.ObserveLoss + Retune
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"remicss.send", "remicss.choose", "sharing.split", "drbg.read", "udptrans.send",
	"gateway.flush", "gateway.dispatch", "remicss.handle", "sharing.combine",
	"bench.deliver", "gateway.register", "adapt.retune",
}

// keptSpans bounds the spans each lane keeps for the dump written at the
// end; every span still counts in the per-kind totals.
const keptSpans = 4096

// span is one timed call, as written to the dump.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Lane    string `json:"lane"`
	Name    string `json:"name"`
	Session uint64 `json:"session"`
	Seq     uint64 `json:"seq"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// kindTotals accumulates one span kind: calls, time inside the span, and
// self time (the span minus its children).
type kindTotals struct {
	calls, totalNs, selfNs int64
	// bytes counts the bytes drbg.read spans returned.
	bytes int64
}

type frame struct {
	kind    spanKind
	id      int32
	start   int64
	childNs int64
}

// lane is a stack of open spans owned by one thread of control at a time.
// The main lane belongs to the benchmark goroutine that sets up and
// generates load; the ingest lane is entered from the transport's reader
// goroutines, which take mu at the outermost span so that their nesting
// stays unambiguous. The traced run therefore serializes ingest; the
// untraced pass shows what that costs.
type lane struct {
	name string
	mu   sync.Mutex
	// session and seq identify the symbol the open spans serve.
	session, seq uint64
	depth        int
	stack        [8]frame
	totals       [numSpanKinds]kindTotals
	kept         []span
	ids          *atomic.Int32
}

func (l *lane) begin(k spanKind) {
	f := &l.stack[l.depth]
	l.depth++
	f.kind, f.id, f.childNs = k, l.ids.Add(1), 0
	f.start = nowNs()
}

func (l *lane) end() {
	now := nowNs()
	l.depth--
	f := &l.stack[l.depth]
	d := now - f.start
	t := &l.totals[f.kind]
	t.calls++
	t.totalNs += d
	t.selfNs += d - f.childNs
	parent := int32(-1)
	if l.depth > 0 {
		p := &l.stack[l.depth-1]
		p.childNs += d
		parent = p.id
	}
	if len(l.kept) < cap(l.kept) {
		l.kept = append(l.kept, span{f.id, parent, l.name, spanNames[f.kind], l.session, l.seq, f.start, now})
	}
}

// tracer times calls into each layer from decorators around the facade's
// interfaces and entry points; the program itself carries no spans.
type tracer struct {
	ids          atomic.Int32
	main, ingest lane
}

func newTracer() *tracer {
	t := &tracer{}
	t.main = lane{name: "main", ids: &t.ids, kept: make([]span, 0, keptSpans)}
	t.ingest = lane{name: "ingest", ids: &t.ids, kept: make([]span, 0, keptSpans)}
	return t
}

// reset clears totals and kept spans at the start of the measured phase,
// returning the totals gathered so far (set-up spans such as Register).
// The caller guarantees no span is open.
func (t *tracer) reset() [numSpanKinds]kindTotals {
	before := t.totals()
	t.ingest.mu.Lock()
	defer t.ingest.mu.Unlock()
	t.main.totals, t.ingest.totals = [numSpanKinds]kindTotals{}, [numSpanKinds]kindTotals{}
	t.main.kept, t.ingest.kept = t.main.kept[:0], t.ingest.kept[:0]
	return before
}

// totals merges both lanes. Only the main lane's goroutine may call it;
// the ingest lane is read under its lock.
func (t *tracer) totals() [numSpanKinds]kindTotals {
	t.ingest.mu.Lock()
	defer t.ingest.mu.Unlock()
	out := t.main.totals
	for k := range out {
		in := t.ingest.totals[k]
		out[k].calls += in.calls
		out[k].totalNs += in.totalNs
		out[k].selfNs += in.selfNs
		out[k].bytes += in.bytes
	}
	return out
}

// rootNs is the time covered by outermost spans of the measured phase:
// sends and flushes on the main lane, the ingest entry point on the other.
func (t *tracer) rootNs() int64 {
	tot := t.totals()
	root := tot[spanSend].totalNs + tot[spanFlush].totalNs + tot[spanRetune].totalNs
	if tot[spanDispatch].calls > 0 {
		return root + tot[spanDispatch].totalNs
	}
	return root + tot[spanHandle].totalNs
}

// writeSpans dumps the kept spans, ordered by start, one JSON object per
// line.
func (t *tracer) writeSpans(path string) error {
	t.ingest.mu.Lock()
	all := append(append([]span(nil), t.main.kept...), t.ingest.kept...)
	t.ingest.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

// symbolIDs reads the session and sequence number a share datagram
// carries, for labeling ingest spans.
func symbolIDs(d []byte) (session, seq uint64) {
	session, _ = wire.PeekSession(d)
	if len(d) >= 16 {
		seq = binary.BigEndian.Uint64(d[8:16]) // wire header: seq at offset 8
	}
	return session, seq
}

// send times one Sender.Send on the main lane.
func (t *tracer) send(s *remicss.Sender, session, seq uint64, payload []byte) error {
	l := &t.main
	l.session, l.seq = session, seq
	l.begin(spanSend)
	err := s.Send(payload)
	l.end()
	return err
}

// ingestRoot wraps an ingest entry point (Gateway.Dispatch, or
// Receiver.HandleDatagram where no gateway fronts it) as the outermost
// ingest span.
func (t *tracer) ingestRoot(k spanKind, h func([]byte)) func([]byte) {
	l := &t.ingest
	return func(d []byte) {
		l.mu.Lock()
		l.session, l.seq = symbolIDs(d)
		l.begin(k)
		h(d) //lint:allow lockorder serializing ingest under the lane lock is the point: h is Dispatch or HandleDatagram, whose nested spans take no lane lock
		l.end()
		l.mu.Unlock()
	}
}

// ingestChild wraps a call made inside an ingest root span.
func (t *tracer) ingestChild(k spanKind, h func([]byte)) func([]byte) {
	l := &t.ingest
	return func(d []byte) {
		l.begin(k)
		h(d)
		l.end()
	}
}

// deliver wraps the benchmark's OnSymbol so its check is a child span,
// kept out of the receiver's self time.
func (t *tracer) deliver(f func(seq uint64, payload []byte, delay time.Duration)) func(uint64, []byte, time.Duration) {
	l := &t.ingest
	return func(seq uint64, payload []byte, delay time.Duration) {
		l.begin(spanDeliver)
		f(seq, payload, delay)
		l.end()
	}
}

// tracedChooser times Chooser.Choose.
type tracedChooser struct {
	inner remicss.Chooser
	t     *tracer
}

func (c tracedChooser) Choose(links []remicss.Link) (int, uint32, bool) {
	c.t.main.begin(spanChoose)
	k, mask, ok := c.inner.Choose(links)
	c.t.main.end()
	return k, mask, ok
}

// tracedLink times Link.Send; readiness queries pass straight through.
type tracedLink struct {
	inner remicss.Link
	t     *tracer
}

func (l tracedLink) Send(d []byte) bool {
	l.t.main.begin(spanLink)
	ok := l.inner.Send(d)
	l.t.main.end()
	return ok
}

func (l tracedLink) Writable() bool         { return l.inner.Writable() }
func (l tracedLink) Backlog() time.Duration { return l.inner.Backlog() }

func (t *tracer) links(in []remicss.Link) []remicss.Link {
	out := make([]remicss.Link, len(in))
	for i, l := range in {
		out[i] = tracedLink{l, t}
	}
	return out
}

// intoScheme is the allocation-aware half of the sharing schemes; the
// wrapper forwards it so the sender stays on its zero-allocation path.
type intoScheme interface {
	SplitSharesInto(secret []byte, k, m int, shares []remicss.Share) ([]remicss.Share, error)
	CombineInto(dst []byte, shares []remicss.Share, k, m int) ([]byte, error)
}

// tracedScheme times splits on the main lane and combines on the ingest
// lane.
type tracedScheme struct {
	inner remicss.SharingScheme
	into  intoScheme
	t     *tracer
}

func newTracedScheme(inner remicss.SharingScheme, t *tracer) (*tracedScheme, error) {
	into, ok := inner.(intoScheme)
	if !ok {
		return nil, fmt.Errorf("scheme %s lacks the allocation-aware methods", inner.Name())
	}
	return &tracedScheme{inner, into, t}, nil
}

func (s *tracedScheme) Name() string { return s.inner.Name() }

func (s *tracedScheme) Split(secret []byte, k, m int) ([]remicss.Share, error) {
	s.t.main.begin(spanSplit)
	defer s.t.main.end()
	return s.inner.Split(secret, k, m)
}

func (s *tracedScheme) Combine(shares []remicss.Share, k, m int) ([]byte, error) {
	s.t.ingest.begin(spanCombine)
	defer s.t.ingest.end()
	return s.inner.Combine(shares, k, m)
}

func (s *tracedScheme) SplitSharesInto(secret []byte, k, m int, shares []remicss.Share) ([]remicss.Share, error) {
	s.t.main.begin(spanSplit)
	defer s.t.main.end()
	return s.into.SplitSharesInto(secret, k, m, shares)
}

func (s *tracedScheme) CombineInto(dst []byte, shares []remicss.Share, k, m int) ([]byte, error) {
	s.t.ingest.begin(spanCombine)
	defer s.t.ingest.end()
	return s.into.CombineInto(dst, shares, k, m)
}

// tracedRandom counts and times reads from the shipped DRBG pool; it is
// the randomness source handed to the traced run's scheme.
type tracedRandom struct{ t *tracer }

func (r tracedRandom) Read(p []byte) (int, error) {
	l := &r.t.main
	l.begin(spanDRBG)
	n, err := drbg.Shared.Read(p)
	l.end()
	l.totals[spanDRBG].bytes += int64(n)
	return n, err
}

// shareRandom is the randomness source a workload's schemes split with:
// nil, which selects drbg.Shared, or the same pool behind the tracing
// reader.
func shareRandom(t *tracer) io.Reader {
	if t == nil {
		return nil
	}
	return tracedRandom{t}
}
