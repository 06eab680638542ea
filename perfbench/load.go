package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/pbio"
)

// The load model: one producer goroutine (the runner's caller) and one
// consumer goroutine.  A run alternates closed-loop step phases — one
// step in flight, the next sent once the consumer has decoded the last
// record of the previous one — with saturating phases in which the
// producer sends without pacing and backpressure comes from TCP and the
// relays' block policy.  The producer names the record it waits for in
// waitSeq; the consumer answers on done once that record is decoded.

// consumerStats is a copy of the consumer's running totals (traced
// runs), sent with every answer so the producer never reads
// consumer-owned state.
type consumerStats struct {
	readNs   int64 // inside Reader.Read, waiting included
	decodeNs int64 // inside DecodeInto/DecodeBatch
}

// stepSplit is the consumer's share of one step's time (traced runs):
// time inside Reader.Read minus the socket reads inside it, and time
// inside DecodeInto/DecodeBatch.
type stepSplit struct {
	read, decode time.Duration
}

// phaseEnd holds the process counters read right after a phase's last
// decode.
type phaseEnd struct {
	cpu time.Duration
	rt  rtSnap
	io  ioCounts
}

type consumerMsg struct {
	end   time.Time // decode end of the awaited record
	split stepSplit
	fin   *phaseEnd // set when the awaited record ended a phase
	stats consumerStats
}

// consumer is the consumer goroutine's state.
type consumer struct {
	s       *stack
	chk     *checker
	dec     *pbio.Record
	batch   *pbio.RecordBatch
	rt      *rt
	started bool
	err     error // first read error not caused by close

	// Traced runs.
	traced   bool
	log      *spanLog
	inSat    atomic.Bool // keep per-call decode durations (saturating phases)
	decodeNs []int32
	split    stepSplit
	stats    consumerStats
}

func newConsumer(s *stack) (*consumer, error) {
	chk, err := newChecker(s.recv, s.seed)
	if err != nil {
		return nil, err
	}
	c := &consumer{s: s, chk: chk, dec: s.recv.NewRecord(), batch: s.recv.NewRecordBatch(), rt: newRT(), traced: s.rconn != nil}
	s.waitSeq.Store(^uint64(0))
	return c, nil
}

// record returns decoded record i of the last message.
func (c *consumer) record(i int) []byte {
	if c.s.w.batch > 0 {
		return c.batch.Bytes(i)
	}
	return c.dec.Bytes()
}

// receiveOne reads, decodes and checks one message on the caller's
// goroutine (set-up's first record).
func (c *consumer) receiveOne() error {
	n, err := c.decodeNext(false)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		c.chk.check(c.record(i))
	}
	if f := c.chk.failed(); f > 0 {
		return fmt.Errorf("first record failed its check")
	}
	return nil
}

// decodeNext reads one message and decodes it (and, on the batched
// workload, the rest of its frame).  With timed set it accumulates the
// per-step split and, while the producer marks the current step as
// traced, records spans.
func (c *consumer) decodeNext(timed bool) (int, error) {
	var t0 time.Time
	var readID uint64
	var waited time.Duration
	if timed {
		readID = c.log.id()
		rc := c.s.rconn
		rc.log, rc.parent = c.log, readID
		waited = rc.waited
		t0 = time.Now()
	}
	msg, err := c.s.rd.Read()
	var t1 time.Time
	if timed {
		t1 = time.Now()
	}
	if err != nil {
		return 0, err
	}
	n := 1
	name := "pbio.DecodeInto"
	if c.s.w.batch > 0 {
		name = "pbio.DecodeBatch"
		n, err = msg.DecodeBatch(c.s.recv, c.batch)
	} else {
		err = msg.DecodeInto(c.s.recv, c.dec)
	}
	if timed {
		t2 := time.Now()
		rd, dec := t1.Sub(t0), t2.Sub(t1)
		wait := c.s.rconn.waited - waited
		c.stats.readNs += rd.Nanoseconds()
		c.stats.decodeNs += dec.Nanoseconds()
		c.split.read += rd - wait
		c.split.decode += dec
		if c.inSat.Load() && len(c.decodeNs) < cap(c.decodeNs) {
			c.decodeNs = append(c.decodeNs, int32(min(dec.Nanoseconds(), 1<<31-1)))
		}
		if root := c.s.stepSpan.Load(); root != 0 {
			trace := c.s.step.Load()
			c.log.add("pbio.Read", trace, readID, root, c.s.rconn.clip(t0), t1)
			c.log.span(name, trace, root, t1, t2)
		}
	}
	if err != nil {
		c.chk.decodeErrs++
		return 0, nil
	}
	return n, nil
}

// start launches the consumer goroutine.
func (c *consumer) start() {
	c.started = true
	go c.run()
}

func (c *consumer) run() {
	defer close(c.s.consDone)
	for {
		n, err := c.decodeNext(c.traced)
		if err != nil {
			if !c.s.stopping.Load() {
				c.err = err
			}
			return
		}
		if n == 0 {
			continue
		}
		first := c.chk.seqOf(c.record(0))
		wait := c.s.waitSeq.Load()
		hit := wait >= first && wait < first+uint64(n)
		var m consumerMsg
		if hit {
			m.end = time.Now()
			if c.s.waitFinal.Load() {
				m.fin = &phaseEnd{cpu: cpuTime(), rt: c.rt.read(), io: readIO()}
			}
		}
		for i := 0; i < n; i++ {
			c.chk.check(c.record(i))
		}
		if !hit {
			continue
		}
		if m.fin != nil {
			c.chk.verifySamples(c.s.orc)
		}
		m.split, m.stats = c.split, c.stats
		c.split = stepSplit{}
		c.s.done <- m
	}
}

// errAborted reports a phase the watchdog ended: the consumer stopped
// answering, so records are missing.
var errAborted = errors.New("consumer stopped answering")

// consumerSpansPerStep is the consumer log's reserve per traced step.
const consumerSpansPerStep = 32

// watchdogSlack is how long past its planned end a phase may run.
const watchdogSlack = 30 * time.Second

// runner drives the producer side of one stack.
type runner struct {
	s      *stack
	traced bool
	log    *spanLog // producer spans (traced)
	rt     *rt
	seq    uint64 // next seq to send
	abort  chan struct{}
	last   consumerStats

	// between, when set, runs before each round, outside its timing.
	between func() error

	// Step phases.  Spans are kept for the first spanSteps steps only,
	// so every kept step is complete.
	stepID, spanSteps           int
	lat                         []float64 // µs
	write, read, decode, flight []float64 // µs, traced
	accounted                   int       // steps whose write, read and decode spans do not overlap

	// Saturating phases.
	sat []satRound
}

// satRound is one saturating phase's measurements.
type satRound struct {
	recs       int64
	dur        time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	io         ioCounts
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	sched      []uint64 // scheduling-latency histogram delta
	buckets    []float64
	writeNs    int64 // traced
	stats      consumerStats
	samples    sampleStats // traced
}

func newRunner(s *stack, traced bool) *runner {
	r := &runner{s: s, traced: traced, rt: newRT(), seq: 1}
	if traced {
		r.log = newSpanLog(1, 3)
		s.cons.log = newSpanLog(2, 3)
		s.cons.decodeNs = make([]int32, 0, 1<<20)
		// A traced step takes one span per Write/Flush plus the step and
		// in-flight spans on the producer, and a few reads, socket reads
		// and a decode on the consumer (consumerSpansPerStep is ample).
		r.spanSteps = min(spanCap/(s.w.stepLen()+3), spanCap/consumerSpansPerStep)
	}
	s.cons.start()
	return r
}

// await waits for the consumer's answer, or the phase watchdog.
func (r *runner) await() (consumerMsg, error) {
	select {
	case m := <-r.s.done:
		r.last = m.stats
		return m, nil
	case <-r.abort:
		return consumerMsg{}, errAborted
	}
}

// watch arms the watchdog for a phase of duration d; the returned
// function disarms it.
func (r *runner) watch(d time.Duration) func() {
	abort := make(chan struct{})
	r.abort = abort
	t := time.AfterFunc(d+watchdogSlack, func() { close(abort) })
	return func() { t.Stop() }
}

// steps runs the closed-loop step phase for d.
func (r *runner) steps(d time.Duration, keep bool) error {
	defer r.watch(d)()
	s := r.s
	n := uint64(s.w.stepLen())
	recs := make([]*pbio.Record, n)
	defer s.stepSpan.Store(0)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		r.stepID++
		step := uint64(r.stepID)
		spans := r.traced && keep && r.spanSteps > 0
		if spans {
			r.spanSteps--
		}
		first := r.seq
		for i := range recs {
			recs[i] = s.gen.record(first + uint64(i))
		}
		r.seq += n
		var root uint64
		if spans {
			root = r.log.id()
		}
		s.step.Store(step)
		s.stepSpan.Store(root)
		s.waitSeq.Store(first + n - 1)
		var wsum time.Duration
		t0 := time.Now()
		s.stepStart.Store(int64(t0.Sub(base)))
		for _, rec := range recs {
			if err := r.writeTimed(rec, "pbio.Write", step, root, &wsum, spans); err != nil {
				return err
			}
		}
		if s.w.batch > 0 {
			if err := r.writeTimed(nil, "pbio.Flush", step, root, &wsum, spans); err != nil {
				return err
			}
		}
		m, err := r.await()
		if err != nil {
			return err
		}
		lat := m.end.Sub(t0)
		if !keep {
			continue
		}
		r.lat = append(r.lat, us(lat))
		if r.traced {
			// The step is write, then in flight, then read and decode.
			// When the consumer starts before the producer's last call
			// returns, the write counts only up to that point, so the
			// four parts always add up to the step.
			consumed := m.split.read + m.split.decode
			if wsum+consumed <= lat {
				r.accounted++
			}
			onPath := min(wsum, max(lat-consumed, 0))
			inflight := max(lat-onPath-consumed, 0)
			r.write = append(r.write, us(wsum))
			r.read = append(r.read, us(m.split.read))
			r.decode = append(r.decode, us(m.split.decode))
			r.flight = append(r.flight, us(inflight))
			if spans {
				at := t0.Add(onPath)
				r.log.span("inflight", step, root, at, at.Add(inflight))
				r.log.add("step", step, root, 0, t0, m.end)
			}
		}
	}
	return nil
}

// writeTimed sends rec (nil: Flush), timing the call in traced runs.
func (r *runner) writeTimed(rec *pbio.Record, name string, step, root uint64, sum *time.Duration, spans bool) error {
	if !r.traced {
		if rec == nil {
			return r.s.wr.Flush()
		}
		return r.s.wr.Write(rec)
	}
	t := time.Now()
	var err error
	if rec == nil {
		err = r.s.wr.Flush()
	} else {
		err = r.s.wr.Write(rec)
	}
	e := time.Now()
	*sum += e.Sub(t)
	if spans {
		r.log.span(name, step, root, t, e)
	}
	return err
}

// writeStride spaces the timed calls of a traced saturating phase.
// Timing every call would double the cost of a 100 B Write; the stride
// is coprime to the 64-record batch, so calls that flush a batch are
// timed at their true rate.
const writeStride = 7

// writeSample times every writeStride-th Write/Flush of a saturating
// phase in traced runs and scales the sum up to all calls.
type writeSample struct {
	calls, timed int64
	ns           time.Duration
}

// send writes rec (nil: Flush).
func (w *writeSample) send(r *runner, rec *pbio.Record) error {
	w.calls++
	timed := r.traced && w.calls%writeStride == 0
	var t time.Time
	if timed {
		t = time.Now()
	}
	var err error
	if rec == nil {
		err = r.s.wr.Flush()
	} else {
		err = r.s.wr.Write(rec)
	}
	if timed {
		w.ns += time.Since(t)
		w.timed++
	}
	return err
}

// estimate is the phase's total time inside Write/Flush, in ns.
func (w *writeSample) estimate() int64 {
	if w.timed == 0 {
		return 0
	}
	return w.ns.Nanoseconds() * w.calls / w.timed
}

// saturate runs one saturating phase for d.
func (r *runner) saturate(d time.Duration, keep bool) error {
	defer r.watch(d)()
	s := r.s
	var smp *sampler
	if r.traced && keep {
		smp = startSampler(s.relays)
		s.cons.inSat.Store(true)
	}
	prev := r.last
	s.waitFinal.Store(false)
	s.waitSeq.Store(^uint64(0))
	startCPU, startIO, startRT := cpuTime(), readIO(), r.rt.read()
	first := r.seq
	var ws writeSample
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for {
		if (r.seq-first)%64 == 0 && !time.Now().Before(deadline) {
			break
		}
		if err := ws.send(r, s.gen.record(r.seq)); err != nil {
			return err
		}
		r.seq++
	}
	// The phase's last record is the one the consumer answers for.
	s.waitFinal.Store(true)
	s.waitSeq.Store(r.seq)
	if err := ws.send(r, s.gen.record(r.seq)); err != nil {
		return err
	}
	r.seq++
	if err := ws.send(r, nil); err != nil {
		return err
	}
	m, err := r.await()
	s.waitFinal.Store(false)
	if smp != nil {
		s.cons.inSat.Store(false)
		smp.stop()
	}
	if err != nil {
		return err
	}
	if !keep {
		return nil
	}
	f := m.fin
	round := satRound{
		recs:       int64(r.seq - first),
		dur:        m.end.Sub(t0),
		cpu:        f.cpu - startCPU,
		allocs:     f.rt.allocObjects - startRT.allocObjects,
		allocBytes: f.rt.allocBytes - startRT.allocBytes,
		io:         f.io.sub(startIO),
		gcCycles:   f.rt.gcCycles - startRT.gcCycles,
		gcCPU:      f.rt.gcCPU - startRT.gcCPU,
		totalCPU:   f.rt.totalCPU - startRT.totalCPU,
		buckets:    f.rt.schedBuckets,
		writeNs:    ws.estimate(),
		stats:      m.stats.sub(prev),
	}
	if len(f.rt.schedCounts) == len(startRT.schedCounts) {
		round.sched = make([]uint64, len(f.rt.schedCounts))
		for i := range round.sched {
			round.sched[i] = f.rt.schedCounts[i] - startRT.schedCounts[i]
		}
	}
	if smp != nil {
		round.samples = smp.result
	}
	r.sat = append(r.sat, round)
	return nil
}

func (a consumerStats) sub(b consumerStats) consumerStats {
	return consumerStats{readNs: a.readNs - b.readNs, decodeNs: a.decodeNs - b.decodeNs}
}

// roundTime is the length of one (step phase, saturating phase) round.
// Throughput and latency drift between modes over seconds on a small
// machine; many short rounds, reported by their median, average that out.
const roundTime = time.Second / 2

// pass runs a warm-up and then rounds of (step phase, saturating phase)
// over d in total.
func (r *runner) pass(d time.Duration) error {
	warm := d / 10
	if err := r.steps(warm/2, false); err != nil {
		return err
	}
	if err := r.saturate(warm/2, false); err != nil {
		return err
	}
	rounds := max(3, int((d-warm)/roundTime))
	per := (d - warm) / time.Duration(rounds)
	for i := 0; i < rounds; i++ {
		if r.between != nil {
			if err := r.between(); err != nil {
				return err
			}
		}
		// Every round starts from a collected heap, so garbage left by
		// set-up or the previous round is not collected inside it.
		runtime.GC()
		if err := r.steps(per*2/5, true); err != nil {
			return err
		}
		if err := r.saturate(per*3/5, true); err != nil {
			return err
		}
	}
	return nil
}

// finish stops the stack and returns the records attempted and failed
// over its whole life, set-up included.  Records sent but never decoded
// count as missing.
func (r *runner) finish() (attempted, failed int64, err error) {
	r.s.close()
	c := r.s.cons
	sent := r.seq
	failed = c.chk.failed()
	if c.chk.next < sent {
		failed += int64(sent - c.chk.next)
	}
	return int64(sent), failed, c.err
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
