package pbio

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/telemetry/tracectx"
)

// batchFormat registers a small fixed-size format on ctx.
func batchFormat(t *testing.T, ctx *Context) *Format {
	t.Helper()
	f, err := ctx.Register("tick", F("seq", Int), F("v", Double))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBatchedWriteRoundTrip(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	const n = 6
	want := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("seq", 0, int64(i))
		rec.MustSetFloat("v", 0, float64(i)*2.5)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, int64(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rctx := ctxFor(t, "x86")
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(&stream)
	defer r.Close()
	for i := 0; i < n; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !m.Batched() {
			t.Errorf("record %d: Batched()=false after coalesced send", i)
		}
		rec, err := m.Decode(rf)
		if err != nil {
			t.Fatal(err)
		}
		if seq, _ := rec.Int("seq", 0); seq != want[i] {
			t.Errorf("record %d: seq=%d", i, seq)
		}
		if v, _ := rec.Float("v", 0); v != float64(i)*2.5 {
			t.Errorf("record %d: v=%v", i, v)
		}
	}
}

func TestWriteBatchAPIRoundTrip(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	recs := make([]*Record, 4)
	for i := range recs {
		recs[i] = f.NewRecord()
		recs[i].MustSetInt("seq", 0, int64(i+10))
	}
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}

	rctx := ctxFor(t, "x86-64")
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(&stream)
	defer r.Close()
	for i := range recs {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rec, err := m.Decode(rf)
		if err != nil {
			t.Fatal(err)
		}
		if seq, _ := rec.Int("seq", 0); seq != int64(i+10) {
			t.Errorf("record %d: seq=%d, want %d", i, seq, i+10)
		}
	}
}

func TestWriteBatchRejectsMixedFormats(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f1 := batchFormat(t, ctx)
	f2, err := ctx.Register("other", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	w := ctx.NewWriter(&bytes.Buffer{})
	err = w.WriteBatch([]*Record{f1.NewRecord(), f2.NewRecord()})
	if err == nil || !strings.Contains(err.Error(), "mixes formats") {
		t.Errorf("mixed-format batch: err=%v", err)
	}
}

// TestPhaseBatchSpans checks the batching-delay attribution: every
// sampled record that leaves in a coalesced batch gets a PhaseBatch span
// covering the buffered window.
func TestPhaseBatchSpans(t *testing.T) {
	sctx, tr := traceCtxFor(t, "sparc-v8", "sender")
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("seq", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	spans := spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch)
	if len(spans) != 0 {
		t.Fatalf("%d batch spans before the flush; records are still pending", len(spans))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	spans = spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch)
	if len(spans) != n {
		t.Fatalf("got %d batch spans, want %d", len(spans), n)
	}
	for i, s := range spans {
		if s.Trace == 0 || s.Parent == 0 {
			t.Errorf("span %d: not parented on a sampled trace: %+v", i, s)
		}
		if s.Format != "tick" {
			t.Errorf("span %d: format %q", i, s.Format)
		}
		if s.Dur < 0 {
			t.Errorf("span %d: negative duration %v", i, s.Dur)
		}
	}
	// All records left in one flush: every span shares the batch window.
	for i := 1; i < len(spans); i++ {
		if !spans[i].Start.Equal(spans[0].Start) {
			t.Errorf("span %d starts at %v, span 0 at %v (one batch, one window)", i, spans[i].Start, spans[0].Start)
		}
	}
}

// TestPhaseBatchSpansSizeFlush pins the seq accounting: a size-triggered
// flush inside WriteRecord must drain exactly the records it flushed.
func TestPhaseBatchSpansSizeFlush(t *testing.T) {
	sctx, tr := traceCtxFor(t, "sparc-v8", "sender")
	f := batchFormat(t, sctx)
	// Traced records travel under the trace-extended format; size the
	// batch to hold exactly two of them.
	rec := f.NewRecord()
	twf, _, err := f.tracedFormat()
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w2 := sctx.NewWriter(&stream)
	if err := w2.SetBatching(2*twf.Size, 0); err != nil {
		t.Fatal(err)
	}
	base := len(spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch))
	for i := 0; i < 3; i++ {
		if err := w2.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Two records flushed by size; the third is pending.
	got := len(spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch)) - base
	if got != 2 {
		t.Fatalf("size flush drained %d batch spans, want 2", got)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	got = len(spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch)) - base
	if got != 3 {
		t.Fatalf("after final flush: %d batch spans, want 3", got)
	}
}

// TestPhaseBatchSpansAfterUntraceable pins the seq accounting across
// the untraceable-format fallback: sampled records of a format that
// cannot carry a trace field still go through the batch and must
// advance the writer's sequence, or the next traced record enrolls
// under a stale number and the format-change flush of the previous
// batch drains its span before the record has left.
func TestPhaseBatchSpansAfterUntraceable(t *testing.T) {
	sctx, tr := traceCtxFor(t, "sparc-v8", "sender")
	odd, err := sctx.Register("odd", F("x", Int), Array("__pbio_trace", ULongLong, 3))
	if err != nil {
		t.Fatal(err)
	}
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Write(odd.NewRecord()); err != nil {
			t.Fatal(err)
		}
	}
	// The format change flushes the three odd records, not this one.
	if err := w.Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	if got := len(spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch)); got != 0 {
		t.Fatalf("%d batch spans before the tick record was flushed, want 0", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	spans := spansNamed(tr.Collector().Snapshot(), tracectx.PhaseBatch)
	if len(spans) != 1 || spans[0].Format != "tick" {
		t.Fatalf("after flush: batch spans %+v, want one for tick", spans)
	}
}

// stageTicks writes n distinct tick records as one batch frame from a
// sparc-v8 (or given arch) sender and returns the raw stream.
func stageTicks(t *testing.T, arch string, n int) []byte {
	t.Helper()
	sctx := ctxFor(t, arch)
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = f.NewRecord()
		recs[i].MustSetInt("seq", 0, int64(i))
		recs[i].MustSetFloat("v", 0, float64(i)*2.5)
	}
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	return stream.Bytes()
}

// checkTick asserts one decoded tick record carries its staged values.
func checkTick(t *testing.T, rec *Record, i int) {
	t.Helper()
	if seq, _ := rec.Int("seq", 0); seq != int64(i) {
		t.Errorf("record %d: seq=%d", i, seq)
	}
	if v, _ := rec.Float("v", 0); v != float64(i)*2.5 {
		t.Errorf("record %d: v=%v", i, v)
	}
}

// TestDecodeBatchRoundTrip drives the fused decode path end to end: a
// heterogeneous batch frame decodes with ONE DecodeBatch call, the frame
// is consumed, and per-record views carry the converted values.
func TestDecodeBatchRoundTrip(t *testing.T) {
	const n = 6
	stream := stageTicks(t, "sparc-v8", n)
	rctx := ctxFor(t, "x86")
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()

	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	rb := rf.NewRecordBatch()
	got, err := m.DecodeBatch(rf, rb)
	if err != nil {
		t.Fatal(err)
	}
	if got != n || rb.Len() != n {
		t.Fatalf("DecodeBatch = %d records (Len %d), want %d", got, rb.Len(), n)
	}
	for i := 0; i < n; i++ {
		checkTick(t, rb.View(i), i)
	}
	// Owned copies survive the next decode; views do not.
	owned := rb.Record(2)
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after consuming the batch: Read err=%v, want EOF", err)
	}
	checkTick(t, owned, 2)
}

// TestDecodeBatchMidFrame checks the hybrid iteration: records decoded
// singly first, then one DecodeBatch sweeping up the rest of the frame.
func TestDecodeBatchMidFrame(t *testing.T) {
	const n = 6
	stream := stageTicks(t, "sparc-v8", n)
	rctx := ctxFor(t, "x86")
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()

	for i := 0; i < 2; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := m.Decode(rf)
		if err != nil {
			t.Fatal(err)
		}
		checkTick(t, rec, i)
	}
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	rb := rf.NewRecordBatch()
	got, err := m.DecodeBatch(rf, rb)
	if err != nil {
		t.Fatal(err)
	}
	if got != n-2 {
		t.Fatalf("mid-frame DecodeBatch = %d records, want %d", got, n-2)
	}
	for i := 0; i < got; i++ {
		checkTick(t, rb.View(i), i+2)
	}
}

// TestDecodeBatchSingleRecord pins the fallback: on an unbatched message
// DecodeBatch decodes one record through the ordinary engine, so callers
// can use it unconditionally on mixed streams.
func TestDecodeBatchSingleRecord(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	rec := f.NewRecord()
	rec.MustSetInt("seq", 0, 0)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}

	rctx := ctxFor(t, "x86")
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(&stream)
	defer r.Close()
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	rb := rf.NewRecordBatch()
	got, err := m.DecodeBatch(rf, rb)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("DecodeBatch on unbatched message = %d, want 1", got)
	}
	checkTick(t, rb.View(0), 0)
}

// TestDecodeBatchInterpreted checks the Interpreted-mode batch loop
// produces the same values as the fused engine.
func TestDecodeBatchInterpreted(t *testing.T) {
	const n = 5
	stream := stageTicks(t, "sparc-v8", n)
	rctx := ctxFor(t, "x86", WithConversion(Interpreted))
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	rb := rf.NewRecordBatch()
	got, err := m.DecodeBatch(rf, rb)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("DecodeBatch = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		checkTick(t, rb.View(i), i)
	}
}

// TestDecodeBatchHomogeneous pins the bulk-copy specialization through
// the public API: a layout-identical batch decodes correctly (one copy
// per frame inside the batch program).
func TestDecodeBatchHomogeneous(t *testing.T) {
	const n = 4
	stream := stageTicks(t, "x86", n)
	rctx := ctxFor(t, "x86")
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	rb := rf.NewRecordBatch()
	got, err := m.DecodeBatch(rf, rb)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("DecodeBatch = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		checkTick(t, rb.View(i), i)
	}
}

// TestDecodeBatchWrongFormat pins the format guard.
func TestDecodeBatchWrongFormat(t *testing.T) {
	stream := stageTicks(t, "sparc-v8", 2)
	rctx := ctxFor(t, "x86")
	rf := batchFormat(t, rctx)
	other, err := rctx.Register("other", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DecodeBatch(rf, other.NewRecordBatch()); err == nil {
		t.Error("DecodeBatch accepted a batch of the wrong format")
	}
}

// TestDecodeBatchFlightEvent checks that the first fused decode journals
// a DCGBatchCompile event carrying the fused shape in its arg words, and
// that the reader journaled the format it learned from the meta frame.
func TestDecodeBatchFlightEvent(t *testing.T) {
	stream := stageTicks(t, "sparc-v8", 3)
	fr := flightrec.New("batch-test", 64)
	rctx := ctxFor(t, "x86", WithFlightRecorder(fr))
	rf := batchFormat(t, rctx)
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DecodeBatch(rf, rf.NewRecordBatch()); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if _, err := fr.WriteTo(&journal); err != nil {
		t.Fatal(err)
	}
	events, err := flightrec.ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	found, learned := false, false
	for _, ev := range events {
		if ev.Kind == flightrec.KindFormatLearned && ev.Subject == "tick" {
			learned = true
		}
		if ev.Kind != flightrec.KindDCGBatchCompile {
			continue
		}
		found = true
		runs, words, steps := flightrec.UnpackBatchShape(ev.Arg2)
		if runs == 0 || words == 0 {
			t.Errorf("batch compile event shape runs=%d fusedWords=%d, want both > 0", runs, words)
		}
		if steps != 0 {
			t.Errorf("flat tick format needed %d step fallbacks", steps)
		}
	}
	if !found {
		t.Error("no DCGBatchCompile event in the flight journal")
	}
	if !learned {
		t.Error("no FormatLearned event for \"tick\" in the flight journal")
	}
}

func TestBatchedWriterFlushOnDelay(t *testing.T) {
	sctx := ctxFor(t, "x86")
	f := batchFormat(t, sctx)
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	if err := w.SetBatching(1<<20, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	first := stream.Len()
	time.Sleep(3 * time.Millisecond)
	if err := w.Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	if stream.Len() == first {
		t.Error("age-triggered flush did not emit the pending records")
	}
}
