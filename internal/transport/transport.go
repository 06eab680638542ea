// Package transport frames PBIO messages over a byte stream and carries
// format meta-information in-band: the first record of each format is
// preceded by a meta message binding a small format ID to the sender's
// full format description.  This plays the role of PBIO's format server
// without a third party — receivers learn every format they need from the
// stream itself, which is what lets components "join ongoing
// communications" with no a-priori knowledge.
package transport

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/wire"
)

// Frame kinds on the wire.
const (
	// FrameMeta carries a meta-encoded format description.
	FrameMeta = 1
	// FrameData carries one record in the sender's native layout.
	FrameData = 2
	// FrameMetaRef carries an 8-byte global format ID (format-server
	// mode).
	FrameMetaRef = 3
	// FrameBatch carries N ≥ 1 records of one format, concatenated in the
	// sender's native layout with no per-record framing: the record count
	// is payload length ÷ format size.  Fixed-size records make the
	// division exact by construction, so batching costs zero descriptive
	// bytes — the header amortizes over the whole run, which is where the
	// per-message overhead goes for small records.
	FrameBatch = 4
	// FrameSub carries a subscription want-list (see Subscription)
	// travelling upstream on a consumer link: a consumer or downstream
	// relay telling its upstream hop which format names it wants.  The
	// format-ID field is unused.
	FrameSub = 5

	// FrameFlagSum, OR-ed into the kind byte, marks a frame whose
	// payload is prefixed by a 4-byte big-endian CRC32-C of the body.
	// The checksum covers the body only — not the header — so a relay
	// can renumber format IDs while forwarding without re-hashing, and
	// the record bytes themselves keep end-to-end integrity across hops.
	// Checksums are opt-in per writer (Writer.SetChecksums); readers
	// accept both forms transparently.
	FrameFlagSum = 0x80

	msgMeta    = FrameMeta
	msgData    = FrameData
	msgMetaRef = FrameMetaRef
	msgBatch   = FrameBatch
)

// Frame is one raw protocol frame.  Relays and other intermediaries can
// forward frames without interpreting record contents — with NDR there is
// nothing to re-encode.
type Frame struct {
	Kind     byte
	FormatID uint32
	Payload  []byte
}

// BaseKind returns the frame kind with the checksum flag stripped.
func (f *Frame) BaseKind() byte { return f.Kind &^ FrameFlagSum }

// Checksummed reports whether the payload carries a CRC32-C prefix.
func (f *Frame) Checksummed() bool { return f.Kind&FrameFlagSum != 0 }

// Body verifies the payload checksum (when present) and returns the
// frame body with any checksum prefix stripped.  A mismatch wraps
// ErrCorruptFrame; the stream itself is still frame-aligned, so callers
// that can tolerate loss may skip the frame and continue reading.
func (f *Frame) Body() ([]byte, error) {
	if !f.Checksummed() {
		return f.Payload, nil
	}
	if len(f.Payload) < 4 {
		return nil, fmt.Errorf("transport: checksummed payload only %d bytes: %w", len(f.Payload), ErrCorruptFrame)
	}
	want := wire.BeUint32(f.Payload)
	body := f.Payload[4:]
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("transport: payload checksum %#x, want %#x: %w", got, want, ErrCorruptFrame)
	}
	return body, nil
}

// AppendSum appends body prefixed with its CRC32-C to dst and returns
// the extended slice — the payload layout of a FrameFlagSum frame.
// Passing a pooled or reused dst (sliced to zero length) makes the
// checksummed payload construction allocation-free.
func AppendSum(dst, body []byte) []byte {
	var crc [4]byte
	wire.PutBeUint32(crc[:], crc32.Checksum(body, crcTable))
	dst = append(dst, crc[:]...)
	return append(dst, body...)
}

// SumPayload returns body prefixed with its CRC32-C in a freshly
// allocated slice.  Intermediaries that originate frames (a relay
// re-encoding meta, say) use this for one-off payloads; per-frame hot
// paths should use AppendSum with a reused buffer instead.
func SumPayload(body []byte) []byte {
	return AppendSum(make([]byte, 0, 4+len(body)), body)
}

// ReadFrame reads one frame, reusing buf for the payload when it is large
// enough.  It returns the frame and the (possibly grown) buffer.  Growth
// goes through the buffer pool, and the outgrown buffer is donated to it
// — the caller yields ownership of buf and must use only the returned
// slice.  io.EOF is returned untouched at a clean frame boundary.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header is read into buf itself, so a warm buffer makes the
	// whole read allocation-free.
	if cap(buf) < frameHeaderSize {
		bufpool.Put(buf)
		buf = bufpool.Get(frameHeaderSize)
	}
	kind, id, buf, err := readFrame(r, nil, (*[frameHeaderSize]byte)(buf[:frameHeaderSize]), buf)
	if err != nil {
		return Frame{}, buf, err
	}
	return Frame{Kind: kind, FormatID: id, Payload: buf}, buf, nil
}

// readFrame reads one frame: the header into hdr, checked for the magic,
// a payload length in range and the meta bound, then the payload into
// buf through readPayload.  hdr may alias buf; it is parsed before the
// payload overwrites it.  I/O errors are noted on m (nil: none) under
// the phase that hit them, and io.EOF at a clean frame boundary is
// returned untouched.  The caller yields buf and keeps only the returned
// payload slice, on error too.
func readFrame(r io.Reader, m *Metrics, hdr *[frameHeaderSize]byte, buf []byte) (kind byte, id uint32, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, buf, io.EOF
		}
		m.noteIOError(err, "read header")
		return 0, 0, buf, fmt.Errorf("transport: read header: %w: %w", err, ErrPeerGone)
	}
	if wire.BeUint16(hdr[:]) != frameMagic {
		return 0, 0, buf, fmt.Errorf("transport: bad frame magic %#x%02x: %w", hdr[0], hdr[1], ErrCorruptFrame)
	}
	kind, id = hdr[2], wire.BeUint32(hdr[3:])
	n := int(wire.BeUint32(hdr[7:]))
	if n < 0 || n > maxPayload {
		return 0, 0, buf, fmt.Errorf("transport: frame payload %d out of range: %w", n, ErrCorruptFrame)
	}
	if k := kind &^ FrameFlagSum; (k == FrameMeta || k == FrameMetaRef || k == FrameSub) && n > maxMetaPayload {
		return 0, 0, buf, fmt.Errorf("transport: meta payload %d exceeds bound %d: %w", n, maxMetaPayload, ErrCorruptFrame)
	}
	if buf, err = readPayload(r, buf, n); err != nil {
		m.noteIOError(err, "read payload")
		return 0, 0, buf, fmt.Errorf("transport: read payload: %w: %w", err, ErrPeerGone)
	}
	return kind, id, buf, nil
}

// eagerPayload is the largest payload sized from the frame header
// alone.  Larger claims get memory only as their bytes arrive.
const eagerPayload = 64 << 10

// readPayload reads an n-byte payload into buf and returns the buffer,
// of length n on success.  When buf already holds n bytes, or n is at
// most eagerPayload, it sizes the buffer once, as the header says.
// Otherwise it grows capacity by doubling each time the buffer fills,
// so a header claiming more than its peer sends costs at most about
// twice the bytes that actually arrived.  Outgrown buffers go back to
// the pool; the caller yields buf and keeps only the returned slice,
// on error too.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n || n <= eagerPayload {
		if cap(buf) < n {
			bufpool.Put(buf)
			buf = bufpool.Get(n)
		}
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:cap(buf)]
	for have := 0; have < n; {
		if have == len(buf) {
			grown := bufpool.Get(min(n, max(2*len(buf), eagerPayload)))
			copy(grown, buf[:have])
			bufpool.Put(buf)
			buf = grown[:cap(grown)]
		}
		end := min(n, len(buf))
		if _, err := io.ReadFull(r, buf[have:end]); err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf[:have], err
		}
		have = end
	}
	return buf[:n], nil
}

// WriteFrame writes one frame.  Header and payload go out as a vectored
// write (one writev syscall on a net.Conn), as PBIO did — the sender
// never copies the record to build a contiguous message.
func WriteFrame(w io.Writer, f Frame) error {
	var hdr [frameHeaderSize]byte
	putHeader(hdr[:], f.Kind, f.FormatID, len(f.Payload))
	bufs := net.Buffers{hdr[:], f.Payload}
	if _, err := bufs.WriteTo(w); err != nil {
		return fmt.Errorf("transport: write frame: %w: %w", err, ErrPeerGone)
	}
	return nil
}

const (
	frameMagic      = 0x5042 // "PB"
	frameHeaderSize = 2 + 1 + 4 + 4

	// maxPayload bounds frame payloads to guard against corrupt or
	// hostile length fields.
	maxPayload = 1 << 28

	// maxMetaPayload bounds meta and meta-reference payloads much more
	// tightly than data: a format description is small by construction,
	// so a large length field on a meta frame is corruption, not data,
	// and must not trigger a quarter-gigabyte allocation.
	maxMetaPayload = 1 << 20
)

func putHeader(hdr []byte, kind byte, id uint32, n int) {
	wire.PutBeUint16(hdr, frameMagic)
	hdr[2] = kind
	wire.PutBeUint32(hdr[3:], id)
	wire.PutBeUint32(hdr[7:], uint32(n))
}

// MetaCache deduplicates decoded format descriptions across the streams
// of one process.  Every reader that receives the same meta bytes gets
// the same *wire.Format pointer back, which (a) drops the per-stream
// decode+validate cost to a map probe, and (b) makes pointer identity
// meaningful across streams, so conversion caches keyed on the format
// hit without fingerprinting.  Safe for concurrent use; share one per
// process (pbio.Context owns one).
type MetaCache struct {
	mu     sync.Mutex
	byMeta map[string]*wire.Format
}

// NewMetaCache returns an empty cache.
func NewMetaCache() *MetaCache {
	return &MetaCache{byMeta: make(map[string]*wire.Format)}
}

// Decode returns the format described by the raw meta bytes, decoding
// and validating only on first sight of those bytes.  The cache-hit path
// does not allocate (Go map lookups with a string(bytes) key are
// conversion-free).
func (c *MetaCache) Decode(meta []byte) (*wire.Format, error) {
	c.mu.Lock()
	f := c.byMeta[string(meta)]
	c.mu.Unlock()
	if f != nil {
		return f, nil
	}
	f, _, err := wire.DecodeMeta(meta)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev := c.byMeta[string(meta)]; prev != nil {
		f = prev // another stream decoded it first; converge on one pointer
	} else {
		c.byMeta[string(meta)] = f
	}
	c.mu.Unlock()
	return f, nil
}

// Writer sends records over a stream.  It is not safe for concurrent use.
type Writer struct {
	w    io.Writer
	reg  *wire.Registry
	sent map[uint32]bool         // format IDs whose meta has been transmitted
	ids  map[*wire.Format]uint32 // fast path: formats already registered
	hdr  [frameHeaderSize]byte
	sum  [4]byte // reused checksum prefix (must outlive the vectored write)
	meta []byte  // reused meta encoding buffer

	// vec is the persistent backing for vectored writes; nb is the
	// net.Buffers header WriteTo consumes.  WriteTo takes its receiver by
	// pointer, so a local net.Buffers would escape (one allocation per
	// frame); nb lives in the Writer, is re-pointed at vec's backing each
	// frame, and advances harmlessly as the write drains (see writeVec).
	vec [][]byte
	nb  net.Buffers

	// Batching state (SetBatching).  Records are coalesced into batch
	// until a flush condition fires; batchN counts them and batchStart
	// is when the oldest was buffered (stamped only when age-based
	// flushing or a flush hook needs it).
	batchMax   int
	batchDelay time.Duration
	batch      []byte
	batchN     int
	batchID    uint32
	batchFmt   *wire.Format
	batchStart time.Time
	onFlush    func(records, payloadBytes int, start, end time.Time)

	// sums, when true, prefixes every payload with a CRC32-C of the body
	// and sets FrameFlagSum in the kind byte.
	sums bool

	// timeout, when nonzero, bounds each WriteRecord with a write
	// deadline (only effective when w is a net.Conn or similar).
	timeout time.Duration

	// registrar, when set, switches the writer to format-server mode:
	// instead of full in-band meta, the first record of each format is
	// preceded by an 8-byte global format ID obtained from the registrar
	// (see internal/fmtserver).
	registrar func(*wire.Format) (uint64, error)

	// m is nil until SetMetrics; every hot-path use is guarded by one
	// nil check (see the Reader field of the same name).
	m *Metrics
}

// SetMetrics attaches a telemetry metric set (nil restores the no-op
// default).
func (t *Writer) SetMetrics(m *Metrics) { t.m = m }

// SetRegistrar switches the writer to format-server mode.  Must be called
// before the first WriteRecord.
func (t *Writer) SetRegistrar(fn func(*wire.Format) (uint64, error)) { t.registrar = fn }

// SetChecksums toggles per-frame payload checksums (CRC32-C).  Off by
// default: on a trusted stream NDR's wire cost stays exactly header +
// native record.  On, each frame costs 4 extra bytes and one CRC pass,
// and corruption anywhere on the path is detected rather than delivered.
func (t *Writer) SetChecksums(on bool) { t.sums = on }

// SetTimeout bounds each WriteRecord call with a write deadline of d from
// its start.  It has effect only when the underlying stream supports
// write deadlines (net.Conn does); zero disables.
func (t *Writer) SetTimeout(d time.Duration) { t.timeout = d }

// SetBatching turns on write coalescing: WriteRecord copies records into
// a pending buffer instead of emitting a frame each, and the buffer goes
// out as one FrameBatch when it reaches maxBytes, when the format
// changes, when the oldest buffered record is older than maxDelay at the
// next write (maxDelay ≤ 0 disables the age check), or on an explicit
// Flush.  A pending run of exactly one record is emitted as an ordinary
// data frame, so batching never changes the wire format of sparse
// traffic.  Buffered records are not visible to the receiver until
// flushed — callers must Flush (or Close, for wrappers that do) before
// waiting on a response.  maxBytes ≤ 0 disables coalescing and flushes
// anything pending.
func (t *Writer) SetBatching(maxBytes int, maxDelay time.Duration) error {
	if maxBytes > maxPayload {
		maxBytes = maxPayload
	}
	if maxBytes <= 0 {
		err := t.Flush()
		t.batchMax, t.batchDelay = 0, 0
		return err
	}
	t.batchMax, t.batchDelay = maxBytes, maxDelay
	return nil
}

// SetFlushHook registers fn to run after every coalesced-batch flush
// with the record count, payload bytes, and the wall-clock span the
// records spent buffered.  The tracing layer uses it to attribute
// batching delay; nil disables.  Setting a hook makes every coalescing
// WriteRecord read the clock once.
func (t *Writer) SetFlushHook(fn func(records, payloadBytes int, start, end time.Time)) {
	t.onFlush = fn
}

// armWrite applies the write deadline, if any.
func (t *Writer) armWrite() {
	if t.timeout > 0 {
		if dl, ok := t.w.(writeDeadliner); ok {
			dl.SetWriteDeadline(time.Now().Add(t.timeout))
		}
	}
}

// checksum fills t.sum with the CRC32-C of body.
func (t *Writer) checksum(body []byte) {
	wire.PutBeUint32(t.sum[:], crc32.Checksum(body, crcTable))
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		w:    w,
		reg:  wire.NewRegistry(),
		sent: make(map[uint32]bool),
		ids:  make(map[*wire.Format]uint32),
	}
}

// ensureFormat registers f (first use) and transmits its meta-information
// (first record), returning the stream-local format ID.
func (t *Writer) ensureFormat(f *wire.Format) (uint32, error) {
	id, known := t.ids[f]
	if !known {
		var err error
		if id, _, err = t.reg.Register(f); err != nil {
			return 0, err
		}
		t.ids[f] = id
	}
	if t.sent[id] {
		return id, nil
	}
	// Frame order is delivery order: anything buffered goes out before
	// the new format's meta.
	if err := t.flushPending(); err != nil {
		return 0, err
	}
	if t.registrar != nil {
		gid, err := t.registrar(f)
		if err != nil {
			return 0, fmt.Errorf("transport: registering format %q: %w", f.Name, err)
		}
		var ref [8]byte
		wire.PutBeUint64(ref[:], gid)
		if err := t.emit(msgMetaRef, id, ref[:], "meta ref"); err != nil {
			return 0, err
		}
	} else {
		t.meta = wire.AppendMeta(t.meta[:0], f)
		if len(t.meta) > maxMetaPayload {
			return 0, fmt.Errorf("transport: format %q meta is %d bytes, exceeds bound %d", f.Name, len(t.meta), maxMetaPayload)
		}
		if err := t.emit(msgMeta, id, t.meta, "meta"); err != nil {
			return 0, err
		}
	}
	t.sent[id] = true
	return id, nil
}

// WriteRecord transmits one record: data must be the record's native
// image, exactly f.Size bytes.  The format's meta-information is sent
// automatically before its first record.  This is the entire sender-side
// cost of NDR: no encoding, no copying — the native bytes are handed to
// the stream as-is.  (With SetBatching the record is copied once into
// the pending batch; that copy is the price of amortizing the frame
// header and syscall over a run of small records.)
//
//pbio:hotpath noalloc=0 steady-state send; pinned by pbio/alloc_test.go TestAllocsSteadyStateWrite
func (t *Writer) WriteRecord(f *wire.Format, data []byte) error {
	if len(data) != f.Size {
		return fmt.Errorf("transport: record %d bytes, format %q is %d", len(data), f.Name, f.Size)
	}
	t.armWrite()
	id, err := t.ensureFormat(f)
	if err != nil {
		return err
	}
	if t.batchMax > 0 {
		return t.coalesce(f, id, data)
	}
	return t.emit(msgData, id, data, "data")
}

// coalesce appends the record to the pending batch, flushing first on a
// format switch or when the record would not fit, and after on size or
// age.
//
//pbio:hotpath noalloc=0 per-record batching step; t.batch reaches steady capacity and the append stops growing (pbio/alloc_test.go TestAllocsBatchedWrite)
func (t *Writer) coalesce(f *wire.Format, id uint32, data []byte) error {
	if t.batchN > 0 && (id != t.batchID || len(t.batch)+len(data) > t.batchMax) {
		if err := t.flushPending(); err != nil {
			return err
		}
	}
	if t.batchN == 0 {
		t.batchFmt, t.batchID = f, id
		if t.batchDelay > 0 || t.onFlush != nil {
			t.batchStart = time.Now()
		}
	}
	t.batch = append(t.batch, data...)
	t.batchN++
	if len(t.batch) >= t.batchMax {
		return t.flushPending()
	}
	if t.batchDelay > 0 && time.Since(t.batchStart) >= t.batchDelay {
		return t.flushPending()
	}
	return nil
}

// Flush emits any records held by the coalescing buffer.  A no-op when
// nothing is pending (or batching is off), so wrappers can call it
// unconditionally at sync points.
func (t *Writer) Flush() error {
	if t.batchN == 0 {
		return nil
	}
	t.armWrite()
	return t.flushPending()
}

// WriteMeta transmits f's meta-information now, without a record, if
// this stream has not carried it yet.  WriteRecord does this
// automatically; WriteMeta exists for streams that must be
// self-describing even when empty (a flight journal with no events is
// still a decodable journal).
func (t *Writer) WriteMeta(f *wire.Format) error {
	t.armWrite()
	_, err := t.ensureFormat(f)
	return err
}

// flushPending writes the coalescing buffer out as one frame: FrameBatch
// for a run of two or more records, a plain data frame for one.
//
//pbio:hotpath noalloc=0 batch flush; reuses t.batch, t.vec and t.hdr across frames
func (t *Writer) flushPending() error {
	n := t.batchN
	if n == 0 {
		return nil
	}
	bytes := len(t.batch)
	start := t.batchStart
	kind, what := byte(msgData), "data"
	if n > 1 {
		kind, what = byte(msgBatch), "batch"
	}
	err := t.emit(kind, t.batchID, t.batch, what)
	t.batch = t.batch[:0]
	t.batchN = 0
	t.batchFmt = nil
	if err != nil {
		return err
	}
	if m := t.m; m != nil && n > 1 {
		m.BatchFramesWritten.Inc()
		m.BatchRecordsWritten.Add(int64(n))
		m.BatchBytesWritten.Add(int64(bytes))
	}
	if t.onFlush != nil {
		t.onFlush(n, bytes, start, time.Now())
	}
	return nil
}

// WriteBatch transmits a run of same-format records as one FrameBatch
// without copying them: header, optional checksum prefix, and every
// record go out as a single vectored write.  Callers that already hold a
// run of records (a relay draining a queue, a simulation emitting a
// timestep) skip the coalescing copy entirely.  Any coalesced records
// pending from WriteRecord are flushed first, preserving order.
//
//pbio:hotpath noalloc=0 vectored batch send; the iovec t.vec is reused, records go out in place
func (t *Writer) WriteBatch(f *wire.Format, recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	total := 0
	for _, rec := range recs {
		if len(rec) != f.Size {
			return fmt.Errorf("transport: batch record %d bytes, format %q is %d", len(rec), f.Name, f.Size)
		}
		total += len(rec)
	}
	if total > maxPayload {
		return fmt.Errorf("transport: batch payload %d exceeds frame bound %d", total, maxPayload)
	}
	t.armWrite()
	id, err := t.ensureFormat(f)
	if err != nil {
		return err
	}
	if err := t.flushPending(); err != nil {
		return err
	}
	if len(recs) == 1 {
		return t.emit(msgData, id, recs[0], "data")
	}
	t.vec = t.vec[:0]
	if t.sums {
		crc := uint32(0)
		for _, rec := range recs {
			crc = crc32.Update(crc, crcTable, rec)
		}
		wire.PutBeUint32(t.sum[:], crc)
		putHeader(t.hdr[:], msgBatch|FrameFlagSum, id, total+4)
		t.vec = append(t.vec, t.hdr[:], t.sum[:])
	} else {
		putHeader(t.hdr[:], msgBatch, id, total)
		t.vec = append(t.vec, t.hdr[:])
	}
	t.vec = append(t.vec, recs...)
	if err := t.writeVec(msgBatch, "batch"); err != nil {
		return err
	}
	if m := t.m; m != nil {
		m.BatchFramesWritten.Inc()
		m.BatchRecordsWritten.Add(int64(len(recs)))
		m.BatchBytesWritten.Add(int64(total))
	}
	return nil
}

// emit stages one frame — header, optional checksum prefix, body — and
// writes it vectored.
//
//pbio:hotpath noalloc=0 every outgoing frame passes through here
func (t *Writer) emit(kind byte, id uint32, body []byte, what string) error {
	t.vec = t.vec[:0]
	if t.sums {
		t.checksum(body)
		putHeader(t.hdr[:], kind|FrameFlagSum, id, len(body)+4)
		t.vec = append(t.vec, t.hdr[:], t.sum[:], body)
	} else {
		putHeader(t.hdr[:], kind, id, len(body))
		t.vec = append(t.vec, t.hdr[:], body)
	}
	return t.writeVec(kind, what)
}

// writeVec flushes the staged t.vec as one vectored write (one writev
// syscall on a net.Conn); the sender never copies records to build a
// contiguous message.  net.Buffers.WriteTo consumes the slice it is
// called on — it advances t.nb (and shrinks the consumed element
// headers inside vec's backing array), but emit rebuilds both from
// scratch each frame, so nothing allocates in steady state.
//
//pbio:hotpath noalloc=0 the one syscall per frame; t.nb reuses t.vec's backing array
func (t *Writer) writeVec(kind byte, what string) error {
	t.nb = net.Buffers(t.vec)
	n, err := t.nb.WriteTo(t.w)
	if err != nil {
		t.m.noteIOError(err, "write "+what)
		return fmt.Errorf("transport: write %s: %w: %w", what, err, ErrPeerGone)
	}
	if m := t.m; m != nil {
		m.FramesWritten.Inc()
		m.BytesWritten.Add(n)
		if kind == msgMeta || kind == msgMetaRef {
			m.MetaWritten.Inc()
		}
	}
	return nil
}

// WireSize returns the number of bytes WriteRecord moves for a record of
// format f, excluding the one-time meta message: header plus the native
// record image.
func WireSize(f *wire.Format) int { return frameHeaderSize + f.Size }

// Message is one received record: the sender's format description and the
// record bytes in the sender's native layout.
//
// Data aliases the Reader's internal receive buffer and is valid only
// until the next ReadMessage call that reads from the stream — exactly
// the lifetime of a receive buffer.  (Messages delivered from one batch
// frame share the buffer; each stays valid until the batch is exhausted
// and the next frame is read.)  Receivers that convert (or use) the
// record before reading the next message never copy; others must.
type Message struct {
	FormatID uint32
	Format   *wire.Format
	Data     []byte

	// WireBytes is the total bytes consumed from the stream to deliver
	// the message — the data frame plus any meta frames that preceded
	// it, headers included.  Records delivered from a batch frame carry
	// the whole frame's bytes on the first record and zero on the rest,
	// so per-stream sums stay exact.
	WireBytes int

	// Batched reports that the record arrived inside a FrameBatch.
	Batched bool

	// Arrival is the wall-clock time the data frame's last payload byte
	// was read.  Stamped only when the reader has arrival stamping
	// enabled (SetArrivalStamps — the tracing path's wire-phase anchor);
	// zero otherwise, so untraced hot paths never touch the clock.
	// Records from one batch frame share the frame's arrival time.
	Arrival time.Time
}

// Reader receives records from a stream.  It is not safe for concurrent
// use.
type Reader struct {
	r       io.Reader
	formats wire.Registry // embedded by value; zero value is ready
	hdr     [frameHeaderSize]byte

	// stampArrivals, when set (SetArrivalStamps), timestamps each
	// delivered Message with its arrival wall-clock time.  Off by
	// default so the untraced read path never calls time.Now.
	stampArrivals bool

	// closed marks the reader's pooled buffer as surrendered; further
	// reads fail rather than touch recycled memory.
	closed bool

	// buf is the pooled receive buffer.  Obtained from bufpool on demand
	// and returned by Close; a reader that is never Closed simply leaks
	// its buffer to the GC.
	buf []byte

	// Batch-frame iteration state: the current batch frame's whole
	// payload (aliases buf), the offset of the first un-delivered
	// record, and the format/ID/arrival the frame was read under.  The
	// un-delivered tail is batch[batchOff:]; keeping the full payload
	// lets TakeBatch hand a batch consumer every remaining record in
	// one contiguous slice — m.Data is capacity-capped at one record
	// and cannot be re-extended over the tail — and storing an offset
	// instead of a second slice keeps the Reader a size class smaller.
	batch      []byte
	pendingFmt *wire.Format
	batchOff   int32 // frame payloads are capped at maxPayload (1<<28)
	pendingID  uint32

	pendingArrival time.Time

	// timeout, when nonzero, bounds each frame read with a read deadline
	// (only effective when r is a net.Conn or similar).
	timeout time.Duration

	// resolver, when set, resolves global format IDs arriving in
	// meta-reference messages (format-server mode).
	resolver func(uint64) (*wire.Format, error)

	// metaCache, when set, deduplicates meta decoding across streams.
	metaCache *MetaCache

	// m is nil until SetMetrics; every hot-path use is guarded by one
	// nil check.  (Leaving the default out of the constructor keeps
	// NewReader — and pbio's wrapper around it — within the inlining
	// budget, which is what lets short-lived readers stay on the
	// caller's stack.)
	m *Metrics
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Reset re-points the reader at a new stream, forgetting learned formats
// and any partially-delivered batch, and clears Close.  Configuration
// (metrics, resolver, meta cache, timeout) and the pooled receive buffer
// carry over.  It exists so a Reader embedded by value can be re-armed
// without allocating.
func (t *Reader) Reset(r io.Reader) {
	t.r = r
	t.formats.Reset()
	t.batch, t.batchOff, t.pendingFmt, t.pendingID = nil, 0, nil, 0
	t.pendingArrival = time.Time{}
	t.closed = false
}

// Close returns the reader's pooled receive buffer to the buffer pool
// and marks the reader closed; subsequent reads fail.  Every Message
// (and anything aliasing one — zero-copy views included) obtained from
// this reader is invalid after Close: its bytes may be recycled into
// another stream's receive buffer.  Close never touches the underlying
// stream; closing that is the caller's business.  Close is idempotent.
func (t *Reader) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.batch, t.batchOff, t.pendingFmt = nil, 0, nil
	if t.buf != nil {
		bufpool.Put(t.buf)
		t.buf = nil
	}
	return nil
}

// SetMetrics attaches a telemetry metric set (nil restores the no-op
// default).
func (t *Reader) SetMetrics(m *Metrics) { t.m = m }

// SetResolver equips the reader to resolve global format IDs via a format
// server (see internal/fmtserver).  Streams written in format-server mode
// cannot be read without one.
func (t *Reader) SetResolver(fn func(uint64) (*wire.Format, error)) { t.resolver = fn }

// SetMetaCache shares a process-wide meta-decode cache with this reader:
// formats whose meta bytes were already seen on any stream cost a map
// probe instead of a decode, and identical formats resolve to one
// *wire.Format pointer across streams.
func (t *Reader) SetMetaCache(c *MetaCache) { t.metaCache = c }

// SetTimeout bounds each frame read with a read deadline of d from its
// start, so a slow or dead peer surfaces as an error instead of a hung
// goroutine.  It has effect only when the underlying stream supports read
// deadlines (net.Conn does); zero disables.
func (t *Reader) SetTimeout(d time.Duration) { t.timeout = d }

// SetArrivalStamps toggles per-message arrival timestamps (Message.
// Arrival).  The tracing layer enables this to anchor the wire phase;
// it is off by default so untraced readers never pay the clock read.
func (t *Reader) SetArrivalStamps(on bool) { t.stampArrivals = on }

// armRead applies the read deadline, if any.
func (t *Reader) armRead() {
	if t.timeout > 0 {
		if dl, ok := t.r.(readDeadliner); ok {
			dl.SetReadDeadline(time.Now().Add(t.timeout))
		}
	}
}

// ReadMessage returns the next data message, transparently consuming any
// meta messages that precede it.  It allocates one Message per call;
// steady-state hot paths use ReadMessageInto.
func (t *Reader) ReadMessage() (*Message, error) {
	m := new(Message)
	if err := t.ReadMessageInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// nextBatched delivers the next record of the current batch frame into m.
func (t *Reader) nextBatched(m *Message, wireBytes int) {
	f := t.pendingFmt
	rec := t.batch[t.batchOff:]
	*m = Message{
		FormatID:  t.pendingID,
		Format:    f,
		Data:      rec[:f.Size:f.Size],
		WireBytes: wireBytes,
		Batched:   true,
		Arrival:   t.pendingArrival,
	}
	t.batchOff += int32(f.Size)
	if int(t.batchOff) == len(t.batch) {
		t.batch, t.batchOff, t.pendingFmt = nil, 0, nil
	}
}

// TakeBatch hands the caller the rest of the current batch frame in one
// contiguous slice: the record already delivered as m plus every record
// not yet delivered, back to back at the frame's fixed stride.  It
// returns nil when m is not the current record of an in-progress batch
// frame — not batched, the frame's last record, or a stale message —
// and the caller then handles m singly.  After a non-nil return the
// frame is consumed: the next ReadMessageInto reads the following frame.
// Like m.Data, the returned slice aliases the receive buffer and is
// valid only until the next read.
//
// This is the transport half of the fused decode path: one TakeBatch
// plus one dcg.Program.ConvertBatch replaces per-record message
// iteration and per-record program dispatch.
func (t *Reader) TakeBatch(m *Message) []byte {
	f := t.pendingFmt
	if !m.Batched || f == nil || f != m.Format || t.batch == nil {
		return nil
	}
	start := int(t.batchOff) - f.Size
	if start < 0 || len(m.Data) != f.Size || &t.batch[start] != &m.Data[0] {
		return nil
	}
	all := t.batch[start:]
	t.batch, t.batchOff, t.pendingFmt = nil, 0, nil
	t.pendingArrival = time.Time{}
	return all
}

// ReadMessageInto fills m with the next data message, transparently
// consuming any meta messages that precede it and iterating batch frames
// one record at a time.  All fields of m are overwritten.  It performs
// no allocation in steady state (formats known, buffer warm).
func (t *Reader) ReadMessageInto(m *Message) error {
	if int(t.batchOff) < len(t.batch) {
		t.nextBatched(m, 0)
		return nil
	}
	if t.closed {
		return fmt.Errorf("transport: read on closed reader: %w", ErrProtocol)
	}
	wireBytes := 0
	for {
		t.armRead()
		rawKind, id, buf, err := readFrame(t.r, t.m, &t.hdr, t.buf)
		t.buf = buf
		if err != nil {
			return err
		}
		kind := rawKind &^ FrameFlagSum
		n := len(buf)
		wireBytes += frameHeaderSize + n
		if m := t.m; m != nil {
			m.FramesRead.Inc()
			m.BytesRead.Add(int64(frameHeaderSize + n))
			if kind != msgData && kind != msgBatch {
				m.MetaRead.Inc()
			}
		}
		// Verify and strip the checksum prefix, if the frame carries one.
		body := t.buf
		if rawKind&FrameFlagSum != 0 {
			f := Frame{Kind: rawKind, Payload: t.buf}
			if body, err = f.Body(); err != nil {
				if m := t.m; m != nil {
					m.noteChecksumFailure(fmt.Sprintf("format %d kind %d", id, kind))
				}
				return err
			}
			n = len(body)
		}
		switch kind {
		case msgMeta:
			var f *wire.Format
			var err error
			if t.metaCache != nil {
				f, err = t.metaCache.Decode(body)
			} else {
				f, _, err = wire.DecodeMeta(body)
			}
			if err != nil {
				return fmt.Errorf("transport: decode meta: %w: %w", err, ErrCorruptFrame)
			}
			// DecodeMeta (and therefore the cache) validates, so the
			// cheaper bind applies.
			if err := t.formats.BindValidated(id, f); err != nil {
				return fmt.Errorf("%w: %w", err, ErrProtocol)
			}
			if m := t.m; m != nil && m.Flight != nil {
				m.Flight.FormatLearned(f.Name)
			}
		case msgMetaRef:
			if t.resolver == nil {
				return fmt.Errorf("transport: stream uses a format server but no resolver is configured: %w", ErrProtocol)
			}
			if n != 8 {
				return fmt.Errorf("transport: meta reference payload %d bytes, want 8: %w", n, ErrCorruptFrame)
			}
			gid := wire.BeUint64(body)
			f, err := t.resolver(gid)
			if err != nil {
				return fmt.Errorf("transport: resolving format %#x: %w: %w", gid, err, ErrFormatUnknown)
			}
			if err := t.formats.Bind(id, f); err != nil {
				return fmt.Errorf("%w: %w", err, ErrProtocol)
			}
		case msgData:
			f := t.formats.Lookup(id)
			if f == nil {
				return fmt.Errorf("transport: data for unknown format ID %d (data before meta): %w", id, ErrProtocol)
			}
			if n != f.Size {
				return fmt.Errorf("transport: record %d bytes, format %q is %d: %w", n, f.Name, f.Size, ErrCorruptFrame)
			}
			*m = Message{FormatID: id, Format: f, Data: body, WireBytes: wireBytes}
			if t.stampArrivals {
				m.Arrival = time.Now()
			}
			return nil
		case msgBatch:
			f := t.formats.Lookup(id)
			if f == nil {
				return fmt.Errorf("transport: batch for unknown format ID %d (data before meta): %w", id, ErrProtocol)
			}
			if n == 0 || n%f.Size != 0 {
				return fmt.Errorf("transport: batch payload %d bytes not a positive multiple of format %q size %d: %w", n, f.Name, f.Size, ErrCorruptFrame)
			}
			if m := t.m; m != nil {
				m.BatchFramesRead.Inc()
				m.BatchRecordsRead.Add(int64(n / f.Size))
				m.BatchBytesRead.Add(int64(n))
			}
			t.batch, t.batchOff = body, 0
			t.pendingFmt = f
			t.pendingID = id
			if t.stampArrivals {
				t.pendingArrival = time.Now()
			} else {
				t.pendingArrival = time.Time{}
			}
			t.nextBatched(m, wireBytes)
			return nil
		default:
			return fmt.Errorf("transport: unknown message kind %d: %w", kind, ErrProtocol)
		}
	}
}

// Formats exposes the formats learned from the stream so far (PBIO's
// reflection support: "message formats can be inspected before the
// message is received").
func (t *Reader) Formats() *wire.Registry { return &t.formats }
