package relay

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/flightrec"
	"repro/internal/native"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pbio"
)

// tickFormat is a small fixed-size format for batching tests.
func tickFormat(t *testing.T) *wire.Format {
	t.Helper()
	return wire.MustLayout(&wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "v", Type: abi.Double, Count: 1},
		},
	}, &abi.X86x64)
}

// stageStream renders a full producer byte stream (meta + records) into
// one buffer, so the relay receives it in as few reads as possible and
// its rebatching window actually sees runs of buffered frames.
func stageStream(t *testing.T, f *wire.Format, n int, batch bool) ([]byte, []*native.Record) {
	t.Helper()
	var buf bytes.Buffer
	w := transport.NewWriter(&buf)
	recs := make([]*native.Record, n)
	images := make([][]byte, n)
	for i := range recs {
		recs[i] = native.New(f)
		native.FillDeterministic(recs[i], int64(i))
		images[i] = recs[i].Buf
	}
	if batch {
		if err := w.WriteBatch(f, images); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, img := range images {
			if err := w.WriteRecord(f, img); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes(), recs
}

// drainConsumer reads n records from the relay's consumer side with the
// raw transport reader, so frame shape (Batched) is observable.
func drainConsumer(t *testing.T, addr string, n int) ([]transport.Message, *transport.Metrics) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := transport.NewReader(conn)
	t.Cleanup(func() { r.Close() })
	m := transport.NewMetrics(telemetry.NewRegistry())
	r.SetMetrics(m)
	var out []transport.Message
	for len(out) < n {
		var msg transport.Message
		if err := r.ReadMessageInto(&msg); err != nil {
			t.Fatalf("after %d records: %v", len(out), err)
		}
		msg.Data = append([]byte(nil), msg.Data...)
		out = append(out, msg)
	}
	return out, m
}

func TestRelayRebatchesRecordRuns(t *testing.T) {
	for _, sums := range []bool{false, true} {
		name := "plain"
		if sums {
			name = "checksummed"
		}
		t.Run(name, func(t *testing.T) {
			pln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("no loopback listener: %v", err)
			}
			cln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				pln.Close()
				t.Skipf("no loopback listener: %v", err)
			}
			s := NewServer()
			s.SetChecksums(sums)
			s.SetRebatching(1 << 16)
			go func() { _ = s.ServeProducers(pln) }()
			go func() { _ = s.ServeConsumers(cln) }()
			t.Cleanup(func() { pln.Close(); cln.Close(); s.Close() })

			const n = 16
			f := tickFormat(t)
			stream, recs := stageStream(t, f, n, false)

			type result struct {
				msgs []transport.Message
				met  *transport.Metrics
			}
			done := make(chan result, 1)
			go func() {
				msgs, met := drainConsumer(t, cln.Addr().String(), n)
				done <- result{msgs, met}
			}()
			time.Sleep(100 * time.Millisecond)

			conn, err := net.Dial("tcp", pln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			// One write delivers the whole run; the relay's read loop sees
			// the frames buffered back-to-back and coalesces them.
			if _, err := conn.Write(stream); err != nil {
				t.Fatal(err)
			}
			conn.Close()

			res := <-done
			for i, msg := range res.msgs {
				if string(msg.Data) != string(recs[i].Buf) {
					t.Errorf("record %d: bytes differ through the relay", i)
				}
			}
			// The producer sent n individual data frames; the relay must
			// have merged at least some of them (the whole stream arrived
			// in one segment, so all but perhaps a leading sliver coalesce).
			if got := res.met.BatchRecordsRead.Value(); got == 0 {
				t.Error("no records arrived in batch frames; rebatching did not engage")
			}
			if res.met.BatchFramesRead.Value() >= int64(n) {
				t.Error("as many batch frames as records; nothing was coalesced")
			}
		})
	}
}

func TestRelayForwardsProducerBatchVerbatim(t *testing.T) {
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pln.Close()
		t.Skipf("no loopback listener: %v", err)
	}
	s := NewServer() // rebatching off: batch frames pass through untouched
	go func() { _ = s.ServeProducers(pln) }()
	go func() { _ = s.ServeConsumers(cln) }()
	t.Cleanup(func() { pln.Close(); cln.Close(); s.Close() })

	const n = 8
	f := tickFormat(t)
	stream, recs := stageStream(t, f, n, true)

	type result struct {
		msgs []transport.Message
		met  *transport.Metrics
	}
	done := make(chan result, 1)
	go func() {
		msgs, met := drainConsumer(t, cln.Addr().String(), n)
		done <- result{msgs, met}
	}()
	time.Sleep(100 * time.Millisecond)

	conn, err := net.Dial("tcp", pln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	res := <-done
	for i, msg := range res.msgs {
		if !msg.Batched {
			t.Errorf("record %d: not delivered from a batch frame", i)
		}
		if string(msg.Data) != string(recs[i].Buf) {
			t.Errorf("record %d: bytes differ through the relay", i)
		}
	}
	if got := res.met.BatchFramesRead.Value(); got != 1 {
		t.Errorf("consumer saw %d batch frames, want 1 (verbatim forward)", got)
	}
}

// TestRelayRebatchFusedDecode closes the loop on relay-originated
// batches: a producer sends per-record frames, the relay coalesces them
// into batch frames, and a heterogeneous pbio consumer decodes them with
// DecodeBatch — so records that were never batched at the sender still
// ride the fused DCG path after the relay.
func TestRelayRebatchFusedDecode(t *testing.T) {
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pln.Close()
		t.Skipf("no loopback listener: %v", err)
	}
	s := NewServer()
	s.SetRebatching(1 << 16)
	go func() { _ = s.ServeProducers(pln) }()
	go func() { _ = s.ServeConsumers(cln) }()
	t.Cleanup(func() { pln.Close(); cln.Close(); s.Close() })

	// Producer stream: per-record frames in a big-endian layout, staged
	// into one segment so the relay's rebatch window sees the whole run.
	const n = 16
	f := wire.MustLayout(&wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "v", Type: abi.Double, Count: 1},
		},
	}, &abi.SparcV8)
	stream, recs := stageStream(t, f, n, false)

	type result struct {
		batched int // records delivered from multi-record DecodeBatch calls
		seqs    []int64
		err     error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		defer func() { done <- res }()
		conn, err := net.Dial("tcp", cln.Addr().String())
		if err != nil {
			res.err = err
			return
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		ctx, err := pbio.NewContext(pbio.WithArch("x86-64"))
		if err != nil {
			res.err = err
			return
		}
		rf, err := ctx.Register("tick", pbio.F("seq", pbio.Int), pbio.F("v", pbio.Double))
		if err != nil {
			res.err = err
			return
		}
		r := ctx.NewReader(conn)
		defer r.Close()
		rb := rf.NewRecordBatch()
		for len(res.seqs) < n {
			m, err := r.Read()
			if err != nil {
				res.err = err
				return
			}
			cnt, err := m.DecodeBatch(rf, rb)
			if err != nil {
				res.err = err
				return
			}
			if cnt > 1 {
				res.batched += cnt
			}
			for i := 0; i < cnt; i++ {
				seq, _ := rb.View(i).Int("seq", 0)
				res.seqs = append(res.seqs, seq)
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)

	conn, err := net.Dial("tcp", pln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i, seq := range res.seqs {
		want, _ := recs[i].Int("seq", 0)
		if seq != want {
			t.Errorf("record %d: seq=%d, want %d (conversion through relay batch)", i, seq, want)
		}
	}
	// The relay merged at least part of the run, and those records came
	// through multi-record fused decodes.
	if res.batched == 0 {
		t.Error("no records arrived via multi-record DecodeBatch; relay-originated batches missed the fused path")
	}
}

func TestRelayDropsCorruptBatchAndContinues(t *testing.T) {
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pln.Close()
		t.Skipf("no loopback listener: %v", err)
	}
	s := NewServer()
	rec := flightrec.New("rebatch", 64)
	s.SetFlight(rec)
	go func() { _ = s.ServeProducers(pln) }()
	go func() { _ = s.ServeConsumers(cln) }()
	t.Cleanup(func() { pln.Close(); cln.Close(); s.Close() })

	f := tickFormat(t)
	// Stream: meta, a checksummed batch whose body will be corrupted,
	// then a clean record.  The relay must drop the batch whole and still
	// deliver the final record.
	var buf bytes.Buffer
	w := transport.NewWriter(&buf)
	w.SetChecksums(true)
	recs := make([]*native.Record, 3)
	images := make([][]byte, 3)
	for i := range recs {
		recs[i] = native.New(f)
		native.FillDeterministic(recs[i], int64(i))
		images[i] = recs[i].Buf
	}
	if err := w.WriteBatch(f, images[:2]); err != nil {
		t.Fatal(err)
	}
	batchEnd := buf.Len()
	if err := w.WriteRecord(f, images[2]); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	stream[batchEnd-1] ^= 0xff // flip a byte inside the batch body

	done := make(chan []transport.Message, 1)
	go func() {
		msgs, _ := drainConsumer(t, cln.Addr().String(), 1)
		done <- msgs
	}()
	time.Sleep(100 * time.Millisecond)

	conn, err := net.Dial("tcp", pln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	msgs := <-done
	if string(msgs[0].Data) != string(recs[2].Buf) {
		t.Error("record after the corrupt batch did not survive")
	}
	conn.Close()
	st := s.Stats()
	if st.ChecksumFailures != 1 {
		t.Errorf("ChecksumFailures=%d, want 1", st.ChecksumFailures)
	}
	if n := journalCounts(t, rec)[flightrec.KindChecksumFailure]; n != 1 {
		t.Errorf("journal has %d ChecksumFailure events, want 1", n)
	}
	if st.BadProducers != 0 {
		t.Errorf("corrupt batch dropped the producer: %+v", st)
	}
}
