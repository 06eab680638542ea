package main

import (
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/tracectx"
)

// Spans of the traced run.  Each goroutine that records spans owns one
// spanLog, so recording takes no lock and no allocation: spans go into a
// preallocated slice and are written out, in the Chrome trace-event JSON
// internal/telemetry/tracectx reads and writes, when the run ends.  All
// spans of one step share its trace ID; a span's parent is the span that
// caused it.

// base anchors span offsets: spans store nanoseconds since base.
var base = time.Now()

// spanCap bounds each log; spans past it are counted, not kept.
const spanCap = 1 << 15

type span struct {
	name              string
	trace, id, parent uint64
	start, dur        int64
}

type spanLog struct {
	spans   []span
	nextID  uint64
	stride  uint64 // IDs of different logs never collide
	dropped int64
}

func newSpanLog(first, stride uint64) *spanLog {
	return &spanLog{spans: make([]span, 0, spanCap), nextID: first, stride: stride}
}

// id reserves a span ID, for parents whose own span is added later.
func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	id := l.nextID
	l.nextID += l.stride
	return id
}

// add records a finished span under a reserved ID.  Nil-safe.
func (l *spanLog) add(name string, trace, id, parent uint64, start, end time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name: name, trace: trace, id: id, parent: parent,
		start: start.Sub(base).Nanoseconds(), dur: end.Sub(start).Nanoseconds()})
}

// span records a finished span under a fresh ID and returns the ID.
func (l *spanLog) span(name string, trace, parent uint64, start, end time.Time) uint64 {
	id := l.id()
	l.add(name, trace, id, parent, start, end)
	return id
}

// writeChrome writes the logs' spans as one Chrome trace-event document.
func writeChrome(path string, logs ...*spanLog) (int, error) {
	var out []tracectx.Span
	var dropped int64
	for _, l := range logs {
		dropped += l.dropped
		for _, s := range l.spans {
			out = append(out, tracectx.Span{
				Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name,
				Proc: "perfbench", Format: "mixed",
				Start: base.Add(time.Duration(s.start)), Dur: time.Duration(s.dur),
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := tracectx.WriteChrome(f, out, dropped); err != nil {
		f.Close()
		return 0, err
	}
	return len(out), f.Close()
}

// timedConn wraps the consumer's connection in the traced run.  Time
// spent inside the socket's Read — blocked waiting for bytes, then the
// read(2) itself — belongs to the transport, not to pbio.Reader.Read:
// the step breakdown subtracts it from the Read span (see stepSplit).
type timedConn struct {
	net.Conn
	log       *spanLog
	step      *atomic.Uint64 // the producer's current step: the spans' trace
	stepSpan  *atomic.Uint64 // its root span; 0 when the step is not traced
	stepStart *atomic.Int64  // its first Write, in ns since base
	parent    uint64         // the enclosing pbio.Read span
	waited    time.Duration  // cumulative time inside Conn.Read
}

func (c *timedConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	e := time.Now()
	c.waited += e.Sub(t)
	if c.stepSpan.Load() != 0 {
		c.log.span("conn.Read", c.step.Load(), c.parent, c.clip(t), e)
	}
	return n, err
}

// clip moves a span start that precedes the current step's first Write
// to that Write: the consumer's read was idle until the step began.
func (c *timedConn) clip(t time.Time) time.Time {
	if start := base.Add(time.Duration(c.stepStart.Load())); t.Before(start) {
		return start
	}
	return t
}
