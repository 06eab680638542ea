package transport

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

// failAfter is an io.Writer that fails once n bytes have been written.
type failAfter struct {
	n       int
	written int
}

var errInjected = errors.New("injected write failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		ok := f.n - f.written
		if ok < 0 {
			ok = 0
		}
		f.written += ok
		return ok, errInjected
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriterPropagatesSinkErrors(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	// Fail at every possible byte boundary of the first record's
	// transmission (meta header, meta, data header, data).
	full := func() int {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}()
	for n := 0; n < full; n += 7 {
		w := NewWriter(&failAfter{n: n})
		err := w.WriteRecord(f, rec.Buf)
		if err == nil {
			t.Fatalf("write succeeded with sink failing at byte %d of %d", n, full)
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("fail at %d: error %v does not wrap the sink error", n, err)
		}
	}
}

// shortReader yields a valid stream prefix then EOF mid-frame.
func TestReaderMidFrameEOFIsError(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must produce either a clean EOF (only at 0
	// bytes or full frames) or a real error — never a record.
	frames := 0
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		m, err := r.ReadMessage()
		switch {
		case err == nil:
			t.Fatalf("cut %d: got a record from a truncated stream", cut)
			_ = m
		case err == io.EOF && cut != 0:
			// EOF is only legitimate at exact frame boundaries; count
			// and verify below.
			frames++
		}
	}
	// The only interior clean-EOF point is right after the meta frame.
	if frames != 1 {
		t.Errorf("clean EOF at %d interior points, want 1 (after the meta frame)", frames)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Kind: FrameMeta, FormatID: 1, Payload: []byte("meta-bytes")},
		{Kind: FrameData, FormatID: 1, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Kind: FrameMetaRef, FormatID: 2, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: FrameData, FormatID: 2, Payload: nil},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range frames {
		got, nbuf, err := ReadFrame(&buf, scratch)
		scratch = nbuf
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.FormatID != want.FormatID ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Errorf("end of frames: %v, want EOF", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{1, 2, 3},
		{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0},          // bad magic
		{0x50, 0x42, 1, 0, 0, 0, 1, 0xFF, 0, 0, 0}, // huge payload
	}
	for i, c := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(c), nil); err == nil || err == io.EOF {
			t.Errorf("case %d accepted: %v", i, err)
		}
	}
}

// TestOversizedHeaderAllocatesByArrival: an 11-byte header claiming a
// 1<<28 payload, followed by nothing, must cost memory in proportion to
// the bytes that arrived rather than to the claim — through ReadFrame
// and through Reader alike.
func TestOversizedHeaderAllocatesByArrival(t *testing.T) {
	var hdr [frameHeaderSize]byte
	putHeader(hdr[:], FrameData, 1, 1<<28)
	reads := map[string]func(io.Reader) error{
		"ReadFrame": func(r io.Reader) error { _, _, err := ReadFrame(r, nil); return err },
		"Reader":    func(r io.Reader) error { _, err := NewReader(r).ReadMessage(); return err },
	}
	for name, read := range reads {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(bytes.NewReader(hdr[:]))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrPeerGone) {
			t.Errorf("%s: err = %v, want peer gone", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: 11 bytes in allocated %d bytes, want < 1 MiB", name, n)
		}
	}
}

// TestLargePayloadGrowsAsBytesArrive: a payload past the eager bound,
// delivered in small pieces, reads back intact through the growing
// buffer, and the reused buffer then serves the next frame in place.
func TestLargePayloadGrowsAsBytesArrive(t *testing.T) {
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := WriteFrame(&buf, Frame{Kind: FrameData, FormatID: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	r := iotest.HalfReader(&buf)
	var scratch []byte
	for i := 0; i < 2; i++ {
		f, nbuf, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(f.Payload, payload) {
			t.Fatalf("frame %d: payload corrupted by growth", i)
		}
		if i == 1 && &nbuf[0] != &scratch[0] {
			t.Error("second frame reallocated a buffer that already fit")
		}
		if cap(nbuf) > 2*len(payload) {
			t.Errorf("frame %d: cap %d for a %d-byte payload", i, cap(nbuf), len(payload))
		}
		scratch = nbuf
	}
}

// TestReadFrameSteadyStateAllocs: with a warm buffer, ReadFrame reads
// a small frame without allocating — the header lands in the caller's
// buffer, not in a fresh array per frame.
func TestReadFrameSteadyStateAllocs(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, Frame{Kind: FrameData, FormatID: 1, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	frame := stream.Bytes()
	r := bytes.NewReader(frame)
	var buf []byte
	got := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		f, nbuf, err := ReadFrame(r, buf)
		if err != nil || len(f.Payload) != 100 {
			t.Fatalf("ReadFrame: %d-byte payload, err %v", len(f.Payload), err)
		}
		buf = nbuf
	})
	if got != 0 {
		t.Errorf("ReadFrame allocates %.1f per 100 B frame with a warm buffer, want 0", got)
	}
}

func TestWriteFrameToFailingSink(t *testing.T) {
	f := Frame{Kind: FrameData, FormatID: 1, Payload: make([]byte, 100)}
	for _, n := range []int{0, 5, 11, 50} {
		if err := WriteFrame(&failAfter{n: n}, f); err == nil {
			t.Errorf("WriteFrame succeeded with sink failing at %d", n)
		}
	}
}
