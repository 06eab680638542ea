package relay

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/pbio"
)

// startRelay runs a relay with producer and consumer listeners.
func startRelay(t *testing.T) (s *Server, prodAddr, consAddr string) {
	t.Helper()
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pln.Close()
		t.Skipf("no loopback listener: %v", err)
	}
	s = NewServer()
	go func() { _ = s.ServeProducers(pln) }()
	go func() { _ = s.ServeConsumers(cln) }()
	t.Cleanup(func() {
		pln.Close()
		cln.Close()
		s.Close()
	})
	return s, pln.Addr().String(), cln.Addr().String()
}

// journalCounts decodes rec's journal through the PBIO read path and
// tallies its events by kind.
func journalCounts(t *testing.T, rec *flightrec.Recorder) map[flightrec.Kind]int64 {
	t.Helper()
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("flight ring overwrote %d events; counts need a larger ring", d)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := flightrec.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := make(map[flightrec.Kind]int64)
	for _, e := range events {
		n[e.Kind]++
	}
	return n
}

func producerCtx(t *testing.T, arch string) (*pbio.Context, *pbio.Format) {
	t.Helper()
	ctx, err := pbio.NewContext(pbio.WithArch(arch))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.Register("sample",
		pbio.F("seq", pbio.Int),
		pbio.F("v", pbio.Double),
		pbio.Array("tag", pbio.Char, 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, f
}

// consume reads n records from the relay on the given architecture and
// returns the seq values seen.
func consume(t *testing.T, addr, arch string, n int) []int64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, err := pbio.NewContext(pbio.WithArch(arch))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.Register("sample",
		pbio.F("seq", pbio.Int),
		pbio.F("v", pbio.Double),
		pbio.Array("tag", pbio.Char, 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := ctx.NewReader(conn)
	var seqs []int64
	for len(seqs) < n {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("after %d records: %v", len(seqs), err)
		}
		rec, err := m.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		seq, _ := rec.Int("seq", 0)
		if v, _ := rec.Float("v", 0); v != float64(seq)*0.5 {
			t.Fatalf("record %d: v = %v", seq, v)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func TestRelayFanOut(t *testing.T) {
	s, prodAddr, consAddr := startRelay(t)

	// Two consumers on different architectures subscribe first.
	results := make(chan []int64, 2)
	for _, arch := range []string{"x86", "alpha"} {
		arch := arch
		go func() { results <- consume(t, consAddr, arch, 5) }()
	}
	// Give the consumers a moment to register (frames are not replayed
	// to pre-registered consumers; they receive live broadcasts).
	time.Sleep(100 * time.Millisecond)

	// A sparc producer publishes 5 records.
	conn, err := net.Dial("tcp", prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, f := producerCtx(t, "sparc-v8")
	w := ctx.NewWriter(conn)
	for i := 0; i < 5; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("seq", 0, int64(i))
		rec.MustSetFloat("v", 0, float64(i)*0.5)
		rec.MustSetString("tag", "pub")
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()

	for i := 0; i < 2; i++ {
		seqs := <-results
		for j, seq := range seqs {
			if seq != int64(j) {
				t.Errorf("consumer %d: record %d has seq %d", i, j, seq)
			}
		}
	}
	if s.Formats() != 1 {
		t.Errorf("relay saw %d formats, want 1", s.Formats())
	}
	st := s.Stats()
	if st.Frames < 5 || st.ForwardedBytes == 0 {
		t.Errorf("stats: %d frames, %d bytes", st.Frames, st.ForwardedBytes)
	}
	if st.BadProducers != 0 || st.Resyncs != 0 {
		t.Errorf("clean run recorded errors: %+v", st)
	}
}

func TestRelayLateJoinerGetsMeta(t *testing.T) {
	srv, prodAddr, consAddr := startRelay(t)

	// Producer publishes BEFORE any consumer exists.
	conn, err := net.Dial("tcp", prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, f := producerCtx(t, "sparc-v8")
	w := ctx.NewWriter(conn)
	rec := f.NewRecord()
	rec.MustSetInt("seq", 0, 100)
	rec.MustSetFloat("v", 0, 50)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}

	// Wait for the relay to have absorbed the format.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Formats() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relay never saw the format")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A late joiner must receive the meta replay, then live records.
	done := make(chan []int64, 1)
	go func() { done <- consume(t, consAddr, "x86", 1) }()
	time.Sleep(100 * time.Millisecond)
	rec2 := f.NewRecord()
	rec2.MustSetInt("seq", 0, 101)
	rec2.MustSetFloat("v", 0, 50.5)
	if err := w.Write(rec2); err != nil {
		t.Fatal(err)
	}
	seqs := <-done
	if len(seqs) != 1 || seqs[0] != 101 {
		t.Errorf("late joiner saw %v", seqs)
	}
	conn.Close()
}

func TestRelayTwoProducersDistinctFormats(t *testing.T) {
	s, prodAddr, consAddr := startRelay(t)

	recv := make(chan string, 8)
	go func() {
		conn, err := net.Dial("tcp", consAddr)
		if err != nil {
			return
		}
		defer conn.Close()
		ctx, _ := pbio.NewContext(pbio.WithArch("x86"))
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := ctx.NewReader(conn)
		for i := 0; i < 4; i++ {
			m, err := r.Read()
			if err != nil {
				return
			}
			recv <- m.FormatName()
		}
	}()
	time.Sleep(100 * time.Millisecond)

	// Producer 1: sparc layout of "sample"; producer 2: a different
	// format entirely.
	c1, err := net.Dial("tcp", prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	ctx1, f1 := producerCtx(t, "sparc-v8")
	w1 := ctx1.NewWriter(c1)

	c2, err := net.Dial("tcp", prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx2, err := pbio.NewContext(pbio.WithArch("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ctx2.Register("other", pbio.F("x", pbio.LongLong))
	if err != nil {
		t.Fatal(err)
	}
	w2 := ctx2.NewWriter(c2)

	for i := 0; i < 2; i++ {
		r1 := f1.NewRecord()
		r1.MustSetInt("seq", 0, int64(i))
		r1.MustSetFloat("v", 0, float64(i)*0.5)
		if err := w1.Write(r1); err != nil {
			t.Fatal(err)
		}
		r2 := f2.NewRecord()
		r2.MustSetInt("x", 0, int64(i))
		if err := w2.Write(r2); err != nil {
			t.Fatal(err)
		}
	}

	names := map[string]int{}
	for i := 0; i < 4; i++ {
		select {
		case n := <-recv:
			names[n]++
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d records (%v)", i, names)
		}
	}
	if names["sample"] != 2 || names["other"] != 2 {
		t.Errorf("received %v", names)
	}
	if s.Formats() != 2 {
		t.Errorf("relay saw %d formats, want 2", s.Formats())
	}
}
