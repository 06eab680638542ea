package pbio

import (
	"fmt"
	"io"
	"time"

	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Writer transmits records over a byte stream.  Sending is NDR: the
// record's native bytes go on the wire unmodified; the format's
// meta-information is sent automatically before its first record.  A
// Writer is not safe for concurrent use.
type Writer struct {
	ctx *Context
	tw  *transport.Writer

	// traceBuf is the scratch image for sampled sends (see extendTraced):
	// the record's bytes plus the trailing trace field, reused across
	// writes so tracing steady-state allocates nothing.  sending holds
	// the in-flight sampled record's IDs and stamps until its spans are
	// recorded.
	traceBuf []byte
	sending  sendTrace

	// Batching bookkeeping (see SetBatching).  When coalescing is on,
	// every record passes through the transport's pending batch; writeSeq
	// numbers them and flushedSeq advances as the flush hook reports
	// batches leaving, which is how traced records learn the wall-clock
	// window they spent buffered (pendingTraced, drained in order).
	batching      bool
	writeSeq      uint64
	flushedSeq    uint64
	pendingTraced []pendingTrace
}

// pendingTrace remembers a sampled record sitting in the write batch.
type pendingTrace struct {
	seq     uint64
	trace   uint64
	parent  uint64
	fmtName string
}

// NewWriter returns a Writer over w.  The constructor body must stay
// within the inlining budget: callers that create short-lived writers
// rely on the escape analysis that inlining enables, so the optional
// format-server/telemetry wiring lives in equipWriter.
func (c *Context) NewWriter(w io.Writer) *Writer {
	tw := transport.NewWriter(w)
	c.equipWriter(tw)
	return &Writer{ctx: c, tw: tw}
}

func (c *Context) equipWriter(tw *transport.Writer) {
	if c.registrarFn != nil {
		tw.SetRegistrar(c.registrarFn)
	}
	if c.tmet != nil {
		tw.SetMetrics(c.tmet)
	}
}

// EnableChecksums makes the Writer emit a CRC32-C over every frame body.
// Receivers verify and strip the checksum transparently; readers that
// predate checksums reject the frames as corrupt, so only enable this
// when all consumers understand it.
func (w *Writer) EnableChecksums() { w.tw.SetChecksums(true) }

// SetTimeout bounds each record write when the underlying stream is a
// net.Conn (or anything else with SetWriteDeadline).  Zero means no
// bound.
func (w *Writer) SetTimeout(d time.Duration) { w.tw.SetTimeout(d) }

// SetBatching enables small-record coalescing: consecutive same-format
// records are buffered and go out as one batch frame when the buffer
// reaches maxBytes, the format changes, the oldest buffered record is
// older than maxDelay at the next write, or Flush is called.  Buffered
// records are invisible to the receiver until flushed — call Flush
// before waiting on a response.  maxBytes ≤ 0 turns coalescing off
// (flushing anything pending).
func (w *Writer) SetBatching(maxBytes int, maxDelay time.Duration) error {
	if err := w.tw.SetBatching(maxBytes, maxDelay); err != nil {
		return err
	}
	w.batching = maxBytes > 0
	if w.batching && w.ctx.tracer != nil {
		w.tw.SetFlushHook(w.noteBatchFlush)
	}
	return nil
}

// Flush emits any records held back by batching.  A no-op when nothing
// is pending.
func (w *Writer) Flush() error { return w.tw.Flush() }

// Write transmits one record.  A record the tracer samples takes the
// same path as every other: it only swaps in its trace-extended image
// (see extendTraced) before the WriteRecord call, and its send-side
// spans are recorded once it has left.
//
//pbio:hotpath noalloc=0 steady-state send path; pinned by pbio/alloc_test.go (TestAllocsSteadyStateWrite, TestAllocsBatchedWrite)
func (w *Writer) Write(rec *Record) error {
	f := rec.fmt
	if f.ctx != w.ctx {
		return fmt.Errorf("pbio: record's format belongs to a different context")
	}
	wf, img, sampled := f.wf, rec.rec.Buf, false
	if tr := w.ctx.tracer; tr != nil && tr.Sample() {
		wf, img, sampled = w.extendTraced(rec, tr)
	}
	if err := w.tw.WriteRecord(wf, img); err != nil {
		return err
	}
	if w.batching {
		w.writeSeq++
	}
	f.met.sent.Inc()
	if sampled {
		w.recordSendSpans(f.wf.Name)
	}
	return nil
}

// WriteBatch transmits a run of same-format records as a single batch
// frame, bypassing the coalescing copy: the records' native images go
// out in one vectored write.  Records buffered by SetBatching are
// flushed first, preserving order.  Batched sends are never sampled for
// tracing — the per-record trace field would break the fixed-stride
// layout batch frames rely on.
func (w *Writer) WriteBatch(recs []*Record) error {
	if len(recs) == 0 {
		return nil
	}
	f := recs[0].fmt
	if f.ctx != w.ctx {
		return fmt.Errorf("pbio: record's format belongs to a different context")
	}
	bufs := make([][]byte, len(recs))
	for i, rec := range recs {
		if rec.fmt != f {
			return fmt.Errorf("pbio: batch mixes formats %q and %q", f.Name(), rec.fmt.Name())
		}
		bufs[i] = rec.rec.Buf
	}
	if err := w.tw.WriteBatch(f.wf, bufs); err != nil {
		return err
	}
	f.met.sent.Add(int64(len(recs)))
	return nil
}

// Reader receives records from a byte stream.  A Reader is not safe for
// concurrent use.
//
// Close releases the reader's pooled receive buffer; messages, views and
// anything else aliasing it are invalid afterwards.  Closing is optional
// (an unclosed reader's buffer is simply garbage-collected) but keeps
// buffer churn off short-lived streams.
type Reader struct {
	ctx *Context
	tr  transport.Reader // embedded by value: one allocation per Reader, total

	// cur is the reusable message Read returns.  A Message is only valid
	// until the next Read (its data aliases the receive buffer), so one
	// struct serves the reader's lifetime and the steady-state read path
	// allocates nothing.
	cur Message

	// traceOffs caches the trace-field offset per incoming wire format
	// (-1: format carries no trace field), so the per-message receive
	// check is one map hit.
	traceOffs map[*wire.Format]int

	// Conversion memo: the last (wire format, expected format) pair this
	// reader converted and the engine that did it.  Streams deliver long
	// runs of one format, and the shared meta cache makes wire format
	// pointers stable across streams, so pointer equality hits nearly
	// always and skips the conversion-cache lock and map.  Per-record,
	// batched and traced decodes share the one engine.
	memoWF, memoNF *wire.Format
	memo           engine
}

// NewReader returns a Reader over r.  Like NewWriter, the body stays
// within the inlining budget; optional wiring lives in equipReader.
func (c *Context) NewReader(r io.Reader) *Reader {
	rd := &Reader{ctx: c}
	rd.tr.Reset(r)
	c.equipReader(&rd.tr)
	return rd
}

func (c *Context) equipReader(tr *transport.Reader) {
	tr.SetMetaCache(c.metaCache)
	if c.resolverFn != nil {
		tr.SetResolver(c.resolverFn)
	}
	if c.tmet != nil {
		tr.SetMetrics(c.tmet)
	}
	if c.tracer != nil {
		// Arrival stamps anchor the wire-phase span; only tracing readers
		// pay for the clock read.
		tr.SetArrivalStamps(true)
	}
}

// SetTimeout bounds each message read when the underlying stream is a
// net.Conn (or anything else with SetReadDeadline).  Zero means no
// bound.
func (r *Reader) SetTimeout(d time.Duration) { r.tr.SetTimeout(d) }

// Close returns the reader's pooled receive buffer to the buffer pool;
// subsequent reads fail and previously returned messages (including
// zero-copy views) are invalid.  It never touches the underlying stream.
func (r *Reader) Close() error { return r.tr.Close() }

// Read returns the next message.  It returns io.EOF at a clean end of
// stream.
//
// The returned Message is owned by the Reader and reused by the next
// Read call — the same lifetime its data already had (it aliases the
// receive buffer).  Decode into an owned Record (or struct) to keep a
// record longer.
func (r *Reader) Read() (*Message, error) {
	msg := &r.cur
	msg.ctx, msg.r = r.ctx, r
	msg.tc, msg.traced = wire.TraceContext{}, false
	if err := r.tr.ReadMessageInto(&msg.msg); err != nil {
		return nil, err
	}
	r.ctx.met.recordsRecv.Inc()
	if tr := r.ctx.tracer; tr != nil {
		r.noteArrival(msg, tr)
	}
	return msg, nil
}

// Message is one received record: the sender's native bytes plus the
// sender's format description.  The underlying data aliases the Reader's
// receive buffer, and the Message itself is reused by the Reader: both
// are valid until the next Read call.  Decode into an owned Record (or
// struct) to keep it longer.
type Message struct {
	ctx *Context
	r   *Reader // conversion memo lives on the reader; nil in tests that fake messages
	msg transport.Message

	// Wire-carried trace context (see trace.go).  traced is set only when
	// the sender sampled this record and this context has tracing enabled.
	tc     wire.TraceContext
	traced bool
}

// FormatName returns the sender's format name.
func (m *Message) FormatName() string { return m.msg.Format.Name }

// WireSize returns the size in bytes of the record as transmitted (the
// sender's native size).
func (m *Message) WireSize() int { return m.msg.Format.Size }

// Batched reports whether the record arrived inside a batch frame.
func (m *Message) Batched() bool { return m.msg.Batched }

// Fields describes the incoming format — PBIO's reflection support:
// receivers can inspect messages they have no a-priori knowledge of and
// decide at run time how to process them.
func (m *Message) Fields() []FieldInfo { return fieldInfos(m.msg.Format) }

// DescribeFormat renders the incoming format's full layout.
func (m *Message) DescribeFormat() string { return m.msg.Format.String() }

// SameLayout reports whether the incoming record's layout is identical to
// the expected format's — the homogeneous fast path, where the record is
// usable straight out of the receive buffer.
func (m *Message) SameLayout(f *Format) bool {
	return wire.SameLayout(m.msg.Format, f.wf)
}

// Decode converts the message into an owned record of the expected
// format.  Fields are matched by name: incoming fields the expected
// format lacks are ignored (type extension), expected fields the message
// lacks are zero.
func (m *Message) Decode(expected *Format) (*Record, error) {
	out := expected.NewRecord()
	if err := m.DecodeInto(expected, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto converts the message into an existing record of the expected
// format, reusing its storage.
func (m *Message) DecodeInto(expected *Format, out *Record) error {
	if out.fmt != expected {
		return fmt.Errorf("pbio: record is of format %q, not %q", out.fmt.Name(), expected.Name())
	}
	return m.convert(expected, out.rec.Buf)
}

// View returns the message decoded as a record of the expected format
// without copying, when the layouts are identical (the zero-copy
// homogeneous path).  The returned record aliases the receive buffer and
// is valid only until the next Read.  ok is false when conversion would
// be required; use Decode then.
//
// A traced message travels under the trace-extended format, so it is
// compared against the expected format's own trace-extended variant.
// When those agree the base record is a clean prefix of the wire bytes
// (appending a field never moves earlier offsets) and is viewed in
// place like any other homogeneous record.
func (m *Message) View(expected *Format) (rec *Record, ok bool, err error) {
	layout := expected.wf
	var t0 time.Time
	if m.traced {
		twf, _, err := expected.tracedFormat()
		if err != nil {
			return nil, false, nil
		}
		layout, t0 = twf, time.Now()
	}
	if !wire.SameLayout(m.msg.Format, layout) {
		return nil, false, nil
	}
	rec, err = expected.view(m.msg.Data[:expected.wf.Size])
	if err != nil {
		return nil, false, err
	}
	expected.met.decZero.Inc()
	if m.traced {
		m.recSpan(tracectx.PhaseView, t0, time.Now(), pathZeroCopy)
	}
	return rec, true, nil
}

// engine is a conversion from one wire format to one native format:
// the generated program, or in Interpreted mode the interpreter's plan
// (the other field is nil).
type engine struct {
	prog *dcg.Program
	plan *convert.Plan
}

// lookupEngine returns the conversion from the message's wire format to nf —
// the one engine every decode runs, single record or batch, traced or
// not — consulting the reader's memo before the shared cache.
func (m *Message) lookupEngine(nf *wire.Format) (engine, error) {
	wf := m.msg.Format
	if r := m.r; r != nil && r.memoWF == wf && r.memoNF == nf {
		return r.memo, nil
	}
	var e engine
	var err error
	if m.ctx.mode == Interpreted {
		// The interpreted baseline still computes its field table once
		// per wire format (as pre-DCG PBIO did); only the per-record
		// execution is interpreted.
		e.plan, err = m.ctx.plan(wf, nf)
	} else {
		e.prog, err = m.ctx.cache.Get(wf, nf)
	}
	if err != nil {
		return engine{}, err
	}
	if r := m.r; r != nil {
		r.memoWF, r.memoNF, r.memo = wf, nf, e
	}
	return e, nil
}

// convert runs the context's conversion engine from the message buffer
// into dst.  The clock is read only for a traced message or with
// metrics on; both then get the same decode count and latency
// observation, so sampling does not skew the histograms.  A traced
// message also records its match (engine lookup) and convert spans.
func (m *Message) convert(expected *Format, dst []byte) error {
	met := m.ctx.met
	timed := m.traced || met.enabled
	var t0, t1 time.Time
	if m.traced {
		t0 = time.Now()
	}
	e, err := m.lookupEngine(expected.wf)
	if err != nil {
		return err
	}
	if timed {
		t1 = time.Now()
	}
	if e.plan != nil {
		// With metrics on, the interpreter also times itself
		// (pbio_convert_interp_nanos).
		it := convert.NewInterp(e.plan)
		it.SetMetrics(m.ctx.convMet)
		err = it.Convert(dst, m.msg.Data)
	} else {
		err = e.prog.Convert(dst, m.msg.Data)
	}
	if err != nil || !timed {
		return err
	}
	t2 := time.Now()
	path, decodes, nanos := pathDCG, expected.met.decDCG, met.dcgNanos
	if e.plan != nil {
		path, decodes, nanos = pathInterp, expected.met.decInterp, met.interpNanos
	}
	decodes.Inc()
	nanos.Observe(t2.Sub(t1).Nanoseconds())
	if m.traced {
		m.recSpan(tracectx.PhaseMatch, t0, t1, path)
		m.recSpan(tracectx.PhaseConv, t1, t2, path)
	}
	return nil
}
