package pbio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry/tracectx"
	"repro/internal/wire"
)

// Cross-hop tracing.
//
// Tracing context travels as an ordinary trailing record field
// (wire.TraceFieldName), added by re-laying-out the format with one
// extra field — PBIO's type extension applied to itself.  A sampled
// record goes on the wire under the extended format; receivers that
// know nothing about tracing match fields by name and decode the record
// exactly as if it were untraced, while tracing-aware hops read the
// trace ID, the sender's root span and the send timestamp straight out
// of the native bytes and record their own per-phase spans locally.
// Nothing is rewritten in flight — a relay forwards traced frames
// verbatim — and a multi-process trace is reassembled offline by
// joining each process's exported spans on the trace ID (cmd/pbio-trace
// or Perfetto over /debug/trace.json).
//
// A sampled record takes the same Write, View and convert as any other
// record; only its format, its image and its spans differ.  With
// tracing disabled (the default) the send path costs one nil-check
// branch and the receive path one boolean test per decode; head-based
// sampling (WithTracing's rate) bounds the cost when enabled.

// WithTracing enables cross-hop tracing with head-based sampling: each
// written record is traced with probability rate (clamped to [0,1]).
// The tracer is named after the running binary; use WithTracer to
// control the process name or share a tracer across contexts.
//
// When the context also has telemetry (WithTelemetry), the tracer's
// span and sampling counters are exported on the registry and finished
// spans are served as Chrome trace-event JSON at /debug/trace.json on
// the registry's HTTP surface.
func WithTracing(rate float64) Option {
	return func(c *Context) error {
		c.tracer = tracectx.New(defaultProcName(), rate, 0)
		return nil
	}
}

// WithTracer attaches a caller-built tracer (see tracectx.New), for
// explicit process naming, shared collectors, or custom capacities.
func WithTracer(t *tracectx.Tracer) Option {
	return func(c *Context) error {
		c.tracer = t
		return nil
	}
}

// Tracer returns the context's tracer (nil when tracing is off).
func (c *Context) Tracer() *tracectx.Tracer { return c.tracer }

// defaultProcName identifies this process in exported spans.
func defaultProcName() string {
	return fmt.Sprintf("%s/%d", filepath.Base(os.Args[0]), os.Getpid())
}

// errUntraceable marks formats that cannot carry a trace field (they
// already use the reserved name).
var errUntraceable = errors.New("pbio: format already carries a " + wire.TraceFieldName + " field")

// tracedFormat returns the trace-extended layout of f and the byte
// offset of its trace field, building and caching both on first use.
func (f *Format) tracedFormat() (*wire.Format, int, error) {
	f.traceOnce.Do(func() {
		f.traceOff = -1
		if f.wf.FieldByName(wire.TraceFieldName) != nil {
			f.traceErr = errUntraceable
			return
		}
		twf, err := wire.Layout(wire.TraceSchema(f.wf.Schema()), &f.ctx.arch)
		if err != nil {
			f.traceErr = fmt.Errorf("pbio: extending format %q with trace field: %w", f.wf.Name, err)
			return
		}
		off := wire.TraceFieldOffset(twf)
		if off < 0 {
			f.traceErr = fmt.Errorf("pbio: extended format %q lost its trace field", f.wf.Name)
			return
		}
		f.traceWF = twf
		f.traceOff = off
	})
	return f.traceWF, f.traceOff, f.traceErr
}

// sendTrace is the trace state of a sampled record between
// extendTraced and recordSendSpans: its trace ID, its root send span,
// and the start of the extend and frame phases.
type sendTrace struct {
	trace, root uint64
	extend      time.Time
	frame       time.Time
}

// extendTraced builds the trace-extended image of a sampled record in
// the writer's scratch buffer: the record's bytes, then the trace field
// carrying a fresh trace ID, the root send span and the send stamp.
// When batching, it enrolls the record for its batch span.  A format
// that cannot carry a trace field goes out untraced rather than fail a
// write that would have succeeded without tracing: sampled is false
// and the record's own format and bytes come back.
func (w *Writer) extendTraced(rec *Record, tr *tracectx.Tracer) (wf *wire.Format, img []byte, sampled bool) {
	t0 := time.Now()
	f := rec.fmt
	twf, off, err := f.tracedFormat()
	if err != nil {
		return f.wf, rec.rec.Buf, false
	}
	traceID, root := tr.NewID(), tr.NewID()
	if cap(w.traceBuf) < twf.Size {
		w.traceBuf = make([]byte, twf.Size)
	}
	img = w.traceBuf[:twf.Size]
	n := copy(img, rec.rec.Buf)
	clear(img[n:])
	t1 := time.Now()
	wire.PutTraceContext(img, twf.Order, off, wire.TraceContext{
		TraceID:    traceID,
		ParentSpan: root,
		SendUnixNs: uint64(t1.UnixNano()),
	})
	if w.batching {
		// Enroll before the write: a size-triggered flush inside
		// WriteRecord must find this record in pendingTraced so its
		// batch span is drained with the batch it actually left in (see
		// noteBatchFlush; seq numbering keeps a format-change flush of
		// the *previous* batch from draining it early).
		w.pendingTraced = append(w.pendingTraced, pendingTrace{
			seq: w.writeSeq + 1, trace: traceID, parent: root, fmtName: f.wf.Name,
		})
	}
	w.sending = sendTrace{trace: traceID, root: root, extend: t0, frame: t1}
	return twf, img, true
}

// recordSendSpans records the sender-side phase spans of the sampled
// record Write just sent: extend, frame, and the covering send root.
func (w *Writer) recordSendSpans(name string) {
	tr, s, end := w.ctx.tracer, w.sending, time.Now()
	tr.Record(tracectx.Span{Trace: s.trace, ID: tr.NewID(), Parent: s.root,
		Name: tracectx.PhaseExtend, Start: s.extend, Dur: s.frame.Sub(s.extend), Format: name})
	tr.Record(tracectx.Span{Trace: s.trace, ID: tr.NewID(), Parent: s.root,
		Name: tracectx.PhaseFrame, Start: s.frame, Dur: end.Sub(s.frame), Format: name})
	tr.Record(tracectx.Span{Trace: s.trace, ID: s.root,
		Name: tracectx.PhaseSend, Start: s.extend, Dur: end.Sub(s.extend), Format: name})
}

// noteBatchFlush is the transport flush hook (installed by SetBatching
// when tracing is on): records flushed, payload bytes, and the
// wall-clock window from first buffering to the flush.  Every sampled
// record that left in this batch gets a PhaseBatch span covering that
// window — the batching delay the record actually experienced, the cost
// side of the header-amortization trade.
func (w *Writer) noteBatchFlush(records, payloadBytes int, start, end time.Time) {
	w.flushedSeq += uint64(records)
	tr := w.ctx.tracer
	drained := 0
	for _, p := range w.pendingTraced {
		if p.seq > w.flushedSeq {
			break
		}
		drained++
		if tr == nil {
			continue
		}
		tr.Record(tracectx.Span{Trace: p.trace, ID: tr.NewID(), Parent: p.parent,
			Name: tracectx.PhaseBatch, Start: start, Dur: end.Sub(start), Format: p.fmtName})
	}
	if drained > 0 {
		rest := copy(w.pendingTraced, w.pendingTraced[drained:])
		w.pendingTraced = w.pendingTraced[:rest]
	}
}

// noteArrival inspects a just-received message for wire-level trace
// context and, when present, records the wire-phase span (send stamp →
// arrival) and arms the message's decode-phase tracing.
func (r *Reader) noteArrival(m *Message, tr *tracectx.Tracer) {
	wf := m.msg.Format
	off, ok := r.traceOffs[wf]
	if !ok {
		if r.traceOffs == nil {
			r.traceOffs = make(map[*wire.Format]int)
		}
		off = wire.TraceFieldOffset(wf)
		r.traceOffs[wf] = off
	}
	if off < 0 {
		return
	}
	tc, ok := wire.GetTraceContext(m.msg.Data, wf.Order, off)
	if !ok || tc.TraceID == 0 {
		return
	}
	arrival := m.msg.Arrival
	if arrival.IsZero() {
		arrival = time.Now()
	}
	m.tc = tc
	m.traced = true
	sent := time.Unix(0, int64(tc.SendUnixNs))
	dur := arrival.Sub(sent)
	if dur < 0 {
		// Clock skew between sender and receiver hosts; keep the span
		// but do not invent negative time.
		dur = 0
	}
	tr.Record(tracectx.Span{Trace: tc.TraceID, ID: tr.NewID(), Parent: tc.ParentSpan,
		Name: tracectx.PhaseWire, Start: sent, Dur: dur, Format: wf.Name})
}

// TraceID returns the wire trace identifier riding the message, if the
// sender sampled it and this context has tracing enabled.
func (m *Message) TraceID() (uint64, bool) {
	return m.tc.TraceID, m.traced
}

// recSpan records one receiver-side decode-phase span for a traced
// message.
func (m *Message) recSpan(name string, start, end time.Time, path string) {
	tr := m.ctx.tracer
	tr.Record(tracectx.Span{Trace: m.tc.TraceID, ID: tr.NewID(), Parent: m.tc.ParentSpan,
		Name: name, Start: start, Dur: end.Sub(start), Format: m.msg.Format.Name, Path: path})
}
