package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abi"
	"repro/internal/bench"
	"repro/internal/flightrec"
	"repro/internal/relay"
	"repro/internal/telemetry"
	"repro/pbio"
)

// workload is one traffic mix.  All use the paper's mixed record sent
// from sparc-v8 to x86.
type workload struct {
	name  string
	why   string
	size  string // bench.Sizes label
	hops  int    // relay hops between producer and consumer
	batch int    // records per step and per coalesced frame; 0: per-record frames
}

var workloads = []workload{
	{"hetero-10k-direct", "10 KB sparc-v8 to x86 records, one frame each, no relay: per-record DCG conversion is the largest cost", "10Kb", 0, 0},
	{"hetero-100b-relay2", "100 B records through two relay hops: per-frame reads, writes and allocations dominate, conversion is a few ns", "100b", 2, 0},
	{"hetero-100b-batched", "100 B records coalesced 64 per frame and decoded with DecodeBatch: batch kernels and the writer's copy dominate", "100b", 0, 64},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stepLen is the number of records in one closed-loop step.
func (w workload) stepLen() int { return max(1, w.batch) }

// valuesCount is the values[] length of the workload's record size.
func (w workload) valuesCount() (int, error) {
	for _, s := range bench.Sizes() {
		if s.Label == w.size {
			return s.N, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q", w.size)
}

// relay queue settings, as the pbio-relay daemon runs with
// -queue 256 -queue-policy block and its default flight recorder.
const (
	relayQueue      = 256
	relayFlightCap  = 4096
	waitForPeerTime = 5 * time.Second
)

// stack is one instance of the system under test: producer context and
// writer, zero or more relays, consumer context and reader.
type stack struct {
	w    workload
	seed uint64

	prodReg, consReg *telemetry.Registry // traced runs only
	send, recv       *pbio.Format
	relays           []*relay.Server
	lns              []net.Listener
	pconn, cconn     net.Conn
	rconn            *timedConn // traced runs: wraps cconn
	wr               *pbio.Writer
	rd               *pbio.Reader
	gen              *generator
	orc              *oracle

	serving sync.WaitGroup // relay listeners and uplinks

	setup setupTimes

	// Producer ↔ consumer handshake (see load.go).
	cons      *consumer
	consDone  chan struct{}
	waitSeq   atomic.Uint64
	waitFinal atomic.Bool
	step      atomic.Uint64 // current step's trace ID, for consumer spans
	stepSpan  atomic.Uint64 // its root span ID; 0 when not traced
	stepStart atomic.Int64  // its first Write, in ns since base
	done      chan consumerMsg
	stopping  atomic.Bool
}

// specs converts the benchmark schema into pbio field declarations.
func specs(n int) ([]pbio.FieldSpec, error) {
	var out []pbio.FieldSpec
	for _, f := range bench.MixedSchema(n).Fields {
		var t pbio.Type
		switch f.Type {
		case abi.Char:
			t = pbio.Char
		case abi.Int:
			t = pbio.Int
		case abi.Long:
			t = pbio.Long
		case abi.UInt:
			t = pbio.UInt
		case abi.Float:
			t = pbio.Float
		case abi.Double:
			t = pbio.Double
		default:
			return nil, fmt.Errorf("field %s: unexpected type %v", f.Name, f.Type)
		}
		out = append(out, pbio.FieldSpec{Name: f.Name, Type: t, Count: f.Count})
	}
	return out, nil
}

// newStack sets up the system under test and delivers the first record.
// With traced set, the contexts and relays get telemetry registries, the
// consumer connection is wrapped in a timedConn, and each step of the
// set-up is recorded as a span on log under trace.
func newStack(w workload, seed uint64, traced bool, log *spanLog, trace uint64) (s *stack, err error) {
	s = &stack{w: w, seed: seed, done: make(chan consumerMsg, 1), consDone: make(chan struct{})}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	n, err := w.valuesCount()
	if err != nil {
		return s, err
	}
	fields, err := specs(n)
	if err != nil {
		return s, err
	}
	root := log.id()
	start := time.Now()

	popts := []pbio.Option{pbio.WithArch("sparc-v8")}
	copts := []pbio.Option{pbio.WithArch("x86")}
	if traced {
		s.prodReg, s.consReg = telemetry.NewRegistry(), telemetry.NewRegistry()
		popts = append(popts, pbio.WithTelemetry(s.prodReg))
		copts = append(copts, pbio.WithTelemetry(s.consReg))
	}
	t := time.Now()
	prodCtx, err := pbio.NewContext(popts...)
	if err != nil {
		return s, err
	}
	consCtx, err := pbio.NewContext(copts...)
	if err != nil {
		return s, err
	}
	e := time.Now()
	log.span("pbio.NewContext", trace, root, t, e)
	if s.send, err = prodCtx.Register("mixed", fields...); err != nil {
		return s, err
	}
	if s.recv, err = consCtx.Register("mixed", fields...); err != nil {
		return s, err
	}
	t = time.Now()
	log.span("pbio.Register", trace, root, e, t)
	s.setup.context = t.Sub(start)

	// Relays: hop 0 takes the producer; each later hop attaches below the
	// previous one with an uplink.
	var prodAddr, consAddr string
	for i := 0; i < w.hops; i++ {
		r := relay.NewServer()
		node := fmt.Sprintf("relay-%c", 'a'+i)
		r.SetNodeInfo(node, "")
		r.SetQueue(relayQueue, relay.PolicyBlock)
		r.SetFlight(flightrec.New(node, relayFlightCap))
		if traced {
			r.SetTelemetry(telemetry.NewRegistry())
		}
		s.relays = append(s.relays, r)
		cln, err := s.listen()
		if err != nil {
			return s, err
		}
		s.serve(func() { r.ServeConsumers(cln) })
		if i == 0 {
			pln, err := s.listen()
			if err != nil {
				return s, err
			}
			s.serve(func() { r.ServeProducers(pln) })
			prodAddr = pln.Addr().String()
		} else {
			up, err := net.Dial("tcp", consAddr)
			if err != nil {
				return s, err
			}
			upstream, addr := s.relays[i-1], consAddr
			s.serve(func() { r.RunUplinkTo(up, nil, addr) })
			if err := waitFor(func() bool { return upstream.Consumers() == 1 && r.Uplinks() == 1 }); err != nil {
				return s, fmt.Errorf("uplink %s: %w", node, err)
			}
		}
		consAddr = cln.Addr().String()
	}
	e = time.Now()
	if w.hops > 0 {
		log.span("relay.start", trace, root, t, e)
	}
	s.setup.relay = e.Sub(start) - s.setup.context

	// Connect: consumer first, so the last hop has registered it before
	// the first frame is broadcast.
	if w.hops == 0 {
		ln, err := s.listen()
		if err != nil {
			return s, err
		}
		if s.pconn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return s, err
		}
		if s.cconn, err = ln.Accept(); err != nil {
			return s, err
		}
	} else {
		if s.cconn, err = net.Dial("tcp", consAddr); err != nil {
			return s, err
		}
		last := s.relays[len(s.relays)-1]
		if err := waitFor(func() bool { return last.Consumers() == 1 }); err != nil {
			return s, fmt.Errorf("consumer registration: %w", err)
		}
		if s.pconn, err = net.Dial("tcp", prodAddr); err != nil {
			return s, err
		}
	}
	s.wr = prodCtx.NewWriter(s.pconn)
	if w.batch > 0 {
		if err := s.wr.SetBatching(w.batch*s.send.Size(), 0); err != nil {
			return s, err
		}
	}
	if traced {
		s.rconn = &timedConn{Conn: s.cconn, step: &s.step, stepSpan: &s.stepSpan, stepStart: &s.stepStart}
		s.rd = consCtx.NewReader(s.rconn)
	} else {
		s.rd = consCtx.NewReader(s.cconn)
	}
	t = time.Now()
	log.span("net.Dial", trace, root, e, t)
	s.setup.connect = t.Sub(start) - s.setup.context - s.setup.relay

	if s.gen, err = newGenerator(s.send, seed, w.stepLen()); err != nil {
		return s, err
	}
	if s.orc, err = newOracle(s.gen, n); err != nil {
		return s, err
	}
	if s.cons, err = newConsumer(s); err != nil {
		return s, err
	}
	t = time.Now() // the harness's own preparation is not set-up time
	// First record: the meta exchange, plan building and DCG compile all
	// happen on its path.
	if err := s.wr.Write(s.gen.record(0)); err != nil {
		return s, err
	}
	if err := s.wr.Flush(); err != nil {
		return s, err
	}
	if err := s.cons.receiveOne(); err != nil {
		return s, err
	}
	e = time.Now()
	log.span("first_record", trace, root, t, e)
	s.setup.first = e.Sub(t)
	log.add("setup", trace, root, 0, start, start.Add(s.setup.total()))
	return s, nil
}

func (s *stack) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		s.lns = append(s.lns, ln)
	}
	return ln, err
}

func (s *stack) serve(fn func()) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		fn()
	}()
}

// waitFor spins until cond holds, yielding the processor between polls
// so the relay goroutines it waits on can run.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(waitForPeerTime)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		runtime.Gosched()
	}
	return nil
}

// setupTimes splits one set-up into its steps: contexts and formats,
// relays, connections, and the first record (meta exchange, plan
// building, DCG compile, decode).
type setupTimes struct {
	context, relay, connect, first time.Duration
}

// total is the workload's set-up time: start to first decoded record.
func (t setupTimes) total() time.Duration {
	return t.context + t.relay + t.connect + t.first
}

// close tears the stack down and waits for the consumer goroutine and
// the relays' serving goroutines to return.
func (s *stack) close() {
	s.stopping.Store(true)
	if s.pconn != nil {
		s.pconn.Close()
	}
	for _, r := range s.relays {
		r.Close()
	}
	for _, ln := range s.lns {
		ln.Close()
	}
	if s.cconn != nil {
		s.cconn.Close()
	}
	if s.cons != nil && s.cons.started {
		<-s.consDone
	}
	s.serving.Wait()
	if s.rd != nil {
		s.rd.Close()
	}
}
