package pbio

import (
	"fmt"
	"time"

	"repro/internal/convert"
	"repro/internal/native"
)

// RecordBatch is a reusable destination for the fused batch decode path:
// n native records of one format, back to back at the format's native
// stride in a single buffer.  The buffer grows to the largest batch seen
// and is then reused, so steady-state batch decoding allocates nothing.
// A RecordBatch is not safe for concurrent use.
type RecordBatch struct {
	fmt *Format
	buf []byte
	n   int

	// cur is the reusable record View returns; like a Reader's Message,
	// one struct serves the batch's lifetime so per-record access on the
	// fused path allocates nothing.
	cur Record
}

// NewRecordBatch returns an empty batch of this format.
func (f *Format) NewRecordBatch() *RecordBatch {
	return &RecordBatch{fmt: f}
}

// Format returns the batch's record format.
func (b *RecordBatch) Format() *Format { return b.fmt }

// Len returns the number of records the last decode produced.
func (b *RecordBatch) Len() int { return b.n }

// Bytes returns the native image of record i.  Mutating it mutates the
// batch.
func (b *RecordBatch) Bytes(i int) []byte {
	size := b.fmt.wf.Size
	return b.buf[i*size : (i+1)*size : (i+1)*size]
}

// View returns record i without copying.  The returned record aliases
// the batch buffer AND is reused by the next View call — treat it like a
// Reader's Message: read it before asking for the next one, and use
// Record for a copy that outlives the batch.
func (b *RecordBatch) View(i int) *Record {
	b.cur.fmt = b.fmt
	b.cur.rec = native.Record{Format: b.fmt.wf, Buf: b.Bytes(i)}
	return &b.cur
}

// Record returns an owned copy of record i.
func (b *RecordBatch) Record(i int) *Record {
	rec := b.fmt.NewRecord()
	copy(rec.rec.Buf, b.Bytes(i))
	return rec
}

// ensure sizes the buffer for n records and returns it.  Growth is
// amortized: the buffer only ever gets larger, so a stream of equal-size
// batches allocates once.
func (b *RecordBatch) ensure(n int) []byte {
	need := n * b.fmt.wf.Size
	if cap(b.buf) < need {
		b.buf = make([]byte, need)
	}
	b.buf = b.buf[:need]
	b.n = n
	return b.buf
}

// DecodeBatch converts this message — and, when it is the current record
// of a batch frame, every remaining record of that frame — into out with
// a single fused conversion: one program fetch, one bounds check and one
// kernel sweep per frame instead of per record (dcg.Program.ConvertBatch).
// It returns the number of records decoded; out's previous contents are
// replaced.  After a multi-record decode the frame is consumed: the next
// Read returns the message after the batch.
//
// Messages that are not batched — or that are the last record of their
// frame — decode singly through the same program as a batch of one, so
// callers can use DecodeBatch unconditionally on a mixed stream.
//
//pbio:hotpath noalloc=0 fused batch decode; pinned by pbio/alloc_test.go TestAllocsBatchDecode
func (m *Message) DecodeBatch(expected *Format, out *RecordBatch) (int, error) {
	if out.fmt != expected {
		return 0, fmt.Errorf("pbio: batch is of format %q, not %q", out.fmt.Name(), expected.Name())
	}
	var payload []byte
	if r := m.r; r != nil && !m.traced {
		payload = r.tr.TakeBatch(&m.msg)
	}
	if payload == nil {
		// Single record (not batched, frame tail, or a faked message):
		// the DecodeInto path, into slot 0.
		dst := out.ensure(1)
		if err := m.convert(expected, dst); err != nil {
			out.n = 0
			return 0, err
		}
		return 1, nil
	}
	n := len(payload) / m.msg.Format.Size
	dst := out.ensure(n)
	if err := m.convertBatch(expected, dst, payload, n); err != nil {
		out.n = 0
		return 0, err
	}
	return n, nil
}

// convertBatch runs the context's conversion engine over a whole batch
// payload.  The interpreted engine has no fused form; it hoists the plan
// and interpreter out of the loop and converts record by record, which
// keeps the Interpreted-mode baseline honest in benchmarks.  Only the
// fused path observes a latency, and only with metrics on.
func (m *Message) convertBatch(expected *Format, dst, src []byte, n int) error {
	met := m.ctx.met
	e, err := m.lookupEngine(expected.wf)
	if err != nil {
		return err
	}
	if e.plan != nil {
		it := convert.NewInterp(e.plan)
		it.SetMetrics(m.ctx.convMet)
		ws, ns := m.msg.Format.Size, expected.wf.Size
		for i := 0; i < n; i++ {
			if err := it.Convert(dst[i*ns:(i+1)*ns], src[i*ws:(i+1)*ws]); err != nil {
				return err
			}
		}
		expected.met.decInterp.Add(int64(n))
		return nil
	}
	var start time.Time
	if met.enabled {
		start = time.Now()
	}
	if _, err := e.prog.ConvertBatch(dst, src); err != nil {
		return err
	}
	if met.enabled {
		expected.met.decBatch.Add(int64(n))
		met.dcgBatchNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}
