package pbio_test

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/pbio"
)

func telemetryFields() []pbio.FieldSpec {
	return []pbio.FieldSpec{
		pbio.F("node", pbio.Int),
		pbio.F("load", pbio.Double),
		pbio.Array("values", pbio.Double, 8),
	}
}

// runExchange writes n records from sendArch and receives them on a
// context using recvArch with the given conversion mode and registry.
// When zeroCopy is set the receiver uses View (and the test fails if the
// exchange was not actually zero-copy); otherwise DecodeInto.
func runExchange(t *testing.T, reg *telemetry.Registry, sendArch, recvArch string, mode pbio.ConvMode, n int, zeroCopy bool) {
	t.Helper()
	sctx, err := pbio.NewContext(pbio.WithArch(sendArch))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sctx.Register("telem_rec", telemetryFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	rec := sf.NewRecord()
	for i := 0; i < n; i++ {
		rec.MustSetInt("node", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}

	rctx, err := pbio.NewContext(pbio.WithArch(recvArch),
		pbio.WithConversion(mode), pbio.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("telem_rec", telemetryFields()...)
	if err != nil {
		t.Fatal(err)
	}
	r := rctx.NewReader(&stream)
	out := rf.NewRecord()
	for i := 0; i < n; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if zeroCopy {
			v, ok, err := m.View(rf)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("expected a zero-copy view, layouts differ")
			}
			if got, _ := v.Int("node", 0); got != int64(i) {
				t.Fatalf("record %d: node = %d", i, got)
			}
			continue
		}
		if err := m.DecodeInto(rf, out); err != nil {
			t.Fatal(err)
		}
		if got, _ := out.Int("node", 0); got != int64(i) {
			t.Fatalf("record %d: node = %d", i, got)
		}
	}
}

// TestBatchDecodePathCounters covers the fourth receive regime: a fused
// batch decode counts every record under the dcg_batch path, observes
// one latency per frame, and the batch-program cache exports its own
// pbio_dcg_batch_* compile/hit/miss families.
func TestBatchDecodePathCounters(t *testing.T) {
	const n = 12
	reg := telemetry.NewRegistry()

	sctx, err := pbio.NewContext(pbio.WithArch("sparc-v8"))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sctx.Register("telem_rec", telemetryFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	recs := make([]*pbio.Record, n)
	for i := range recs {
		recs[i] = sf.NewRecord()
		recs[i].MustSetInt("node", 0, int64(i))
	}
	// Two frames, so the second decode exercises the memo/cache-hit path.
	if err := w.WriteBatch(recs[:n/2]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recs[n/2:]); err != nil {
		t.Fatal(err)
	}

	rctx, err := pbio.NewContext(pbio.WithArch("x86-64"), pbio.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("telem_rec", telemetryFields()...)
	if err != nil {
		t.Fatal(err)
	}
	r := rctx.NewReader(&stream)
	defer r.Close()
	rb := rf.NewRecordBatch()
	for got := 0; got < n; {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := m.DecodeBatch(rf, rb)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cnt; i++ {
			if v, _ := rb.View(i).Int("node", 0); v != int64(got+i) {
				t.Fatalf("record %d: node = %d", got+i, v)
			}
		}
		got += cnt
	}

	paths := decodesByPath(reg, "telem_rec")
	if paths["dcg_batch"] != n {
		t.Fatalf("paths = %v, want dcg_batch=%d", paths, n)
	}
	if paths["dcg"] != 0 || paths["interp"] != 0 {
		t.Fatalf("fused decode leaked onto per-record paths: %v", paths)
	}

	families := make(map[string]int64)
	var frameObs int64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "pbio_dcg_batch_cache_hits_total", "pbio_dcg_batch_cache_misses_total", "pbio_dcg_batch_compile_nanos":
			t.Errorf("retired batch-only family %s still registered", m.Name)
		case "pbio_dcg_cache_hits_total", "pbio_dcg_cache_misses_total":
			for _, s := range m.Series {
				families[m.Name] += s.Value
			}
		case "pbio_dcg_compile_nanos":
			for _, s := range m.Series {
				families[m.Name] += s.Histogram.Count
			}
		case "pbio_decode_nanos":
			for _, s := range m.Series {
				if s.Labels["path"] == "dcg_batch" {
					frameObs += s.Histogram.Count
				}
			}
		}
	}
	// One compile (the miss); the second frame hits the reader memo, so
	// the shared cache sees no more traffic.
	if families["pbio_dcg_cache_misses_total"] != 1 {
		t.Errorf("cache misses = %d, want 1 (families: %v)", families["pbio_dcg_cache_misses_total"], families)
	}
	if families["pbio_dcg_compile_nanos"] != 1 {
		t.Errorf("compiles observed = %d, want 1", families["pbio_dcg_compile_nanos"])
	}
	// Latency is observed once per frame, not per record.
	if frameObs != 2 {
		t.Errorf("dcg_batch latency observations = %d, want 2 (one per frame)", frameObs)
	}
}

// decodesByPath distills the pbio_decodes_total family for one format
// out of a registry snapshot.
func decodesByPath(reg *telemetry.Registry, format string) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range reg.Snapshot() {
		if m.Name != "pbio_decodes_total" {
			continue
		}
		for _, s := range m.Series {
			if s.Labels["format"] == format {
				out[s.Labels["path"]] += s.Value
			}
		}
	}
	return out
}

// TestConversionPathCounters is the acceptance test for the decode-path
// telemetry: the three receive regimes of the paper — zero-copy
// homogeneous View, interpreted conversion, DCG conversion — must land
// on three distinct counter series.
func TestConversionPathCounters(t *testing.T) {
	const n = 10
	reg := telemetry.NewRegistry()

	// Homogeneous exchange + View → zero_copy only.
	runExchange(t, reg, "x86-64", "x86-64", pbio.Generated, n, true)
	paths := decodesByPath(reg, "telem_rec")
	if paths["zero_copy"] != n || paths["interp"] != 0 || paths["dcg"] != 0 {
		t.Fatalf("after homogeneous View: paths = %v, want zero_copy=%d only", paths, n)
	}

	// Heterogeneous + Interpreted → interp grows, others hold.
	runExchange(t, reg, "sparc-v8", "x86-64", pbio.Interpreted, n, false)
	paths = decodesByPath(reg, "telem_rec")
	if paths["zero_copy"] != n || paths["interp"] != n || paths["dcg"] != 0 {
		t.Fatalf("after interpreted decode: paths = %v, want zero_copy=%d interp=%d", paths, n, n)
	}

	// Heterogeneous + Generated → dcg grows, others hold.
	runExchange(t, reg, "sparc-v8", "x86-64", pbio.Generated, n, false)
	paths = decodesByPath(reg, "telem_rec")
	if paths["zero_copy"] != n || paths["interp"] != n || paths["dcg"] != n {
		t.Fatalf("after DCG decode: paths = %v, want %d on each path", paths, n)
	}

	// The non-zero-copy paths also observe decode latency.
	var histCount int64
	for _, m := range reg.Snapshot() {
		if m.Name == "pbio_decode_nanos" {
			for _, s := range m.Series {
				histCount += s.Histogram.Count
			}
		}
	}
	if histCount != 2*n {
		t.Errorf("pbio_decode_nanos count = %d, want %d (interp + dcg decodes)", histCount, 2*n)
	}
}

// TestRecordCounters checks the send and receive record counters.
func TestRecordCounters(t *testing.T) {
	const n = 7
	reg := telemetry.NewRegistry()

	ctx, err := pbio.NewContext(pbio.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.Register("telem_rec", telemetryFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := ctx.NewWriter(&stream)
	rec := f.NewRecord()
	for i := 0; i < n; i++ {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := ctx.NewReader(&stream)
	for i := 0; i < n; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]int64{
		"pbio_records_sent_total":     n,
		"pbio_records_received_total": n,
	}
	for _, m := range reg.Snapshot() {
		wantV, ok := want[m.Name]
		if !ok {
			continue
		}
		var got int64
		for _, s := range m.Series {
			got += s.Value
		}
		if got != wantV {
			t.Errorf("%s = %d, want %d", m.Name, got, wantV)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("metric %s not in snapshot", name)
	}

	// Transport counters rode along: frames and bytes moved both ways.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pbio_transport_frames_written_total",
		"pbio_transport_frames_read_total",
		"pbio_transport_bytes_written_total",
		"pbio_transport_bytes_read_total",
	} {
		if !strings.Contains(prom.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestTelemetryDisabled pins the default: no registry, no metrics, and
// the exchange still works (the no-op path).
func TestTelemetryDisabled(t *testing.T) {
	runExchange(t, nil, "sparc-v8", "x86-64", pbio.Generated, 3, false)

	ctx, err := pbio.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Telemetry() != nil {
		t.Fatal("telemetry should be nil by default")
	}
}

// TestTracedDecodeMetricParity: sampling must not skew the decode
// metrics.  The same records decoded from a rate-1 traced stream and
// from an untraced one, on a tracing receiver, land on the same
// pbio_decodes_total{format,path} counts and the same number of
// pbio_decode_nanos observations per path, for each receive regime.
func TestTracedDecodeMetricParity(t *testing.T) {
	const n = 5
	regimes := []struct {
		path               string
		sendArch, recvArch string
		mode               pbio.ConvMode
	}{
		{"dcg", "sparc-v8", "x86-64", pbio.Generated},
		{"interp", "sparc-v8", "x86-64", pbio.Interpreted},
		{"zero_copy", "x86-64", "x86-64", pbio.Generated},
	}
	for _, rg := range regimes {
		t.Run(rg.path, func(t *testing.T) {
			decode := func(traced bool) (map[string]int64, map[string]int64) {
				var sopts []pbio.Option
				if traced {
					sopts = append(sopts, pbio.WithTracing(1))
				}
				sctx, err := pbio.NewContext(append(sopts, pbio.WithArch(rg.sendArch))...)
				if err != nil {
					t.Fatal(err)
				}
				sf, err := sctx.Register("telem_rec", telemetryFields()...)
				if err != nil {
					t.Fatal(err)
				}
				var stream bytes.Buffer
				w := sctx.NewWriter(&stream)
				rec := sf.NewRecord()
				for i := 0; i < n; i++ {
					rec.MustSetInt("node", 0, int64(i))
					if err := w.Write(rec); err != nil {
						t.Fatal(err)
					}
				}

				reg := telemetry.NewRegistry()
				rctx, err := pbio.NewContext(pbio.WithArch(rg.recvArch), pbio.WithConversion(rg.mode),
					pbio.WithTelemetry(reg), pbio.WithTracing(1))
				if err != nil {
					t.Fatal(err)
				}
				rf, err := rctx.Register("telem_rec", telemetryFields()...)
				if err != nil {
					t.Fatal(err)
				}
				r := rctx.NewReader(&stream)
				out := rf.NewRecord()
				for i := 0; i < n; i++ {
					m, err := r.Read()
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := m.TraceID(); ok != traced {
						t.Fatalf("record %d: traced = %v, want %v", i, ok, traced)
					}
					got := out
					if rg.path == "zero_copy" {
						v, ok, err := m.View(rf)
						if err != nil || !ok {
							t.Fatalf("record %d: View ok=%v err=%v", i, ok, err)
						}
						got = v
					} else if err := m.DecodeInto(rf, out); err != nil {
						t.Fatal(err)
					}
					if v, _ := got.Int("node", 0); v != int64(i) {
						t.Fatalf("record %d: node = %d", i, v)
					}
				}
				obs := make(map[string]int64)
				for _, m := range reg.Snapshot() {
					if m.Name == "pbio_decode_nanos" {
						for _, s := range m.Series {
							obs[s.Labels["path"]] += s.Histogram.Count
						}
					}
				}
				return decodesByPath(reg, "telem_rec"), obs
			}
			plainDec, plainObs := decode(false)
			tracedDec, tracedObs := decode(true)
			if plainDec[rg.path] != n {
				t.Fatalf("untraced decodes = %v, want %s=%d", plainDec, rg.path, n)
			}
			if !maps.Equal(plainDec, tracedDec) {
				t.Errorf("decodes: untraced %v, traced %v", plainDec, tracedDec)
			}
			if !maps.Equal(plainObs, tracedObs) {
				t.Errorf("decode_nanos observations: untraced %v, traced %v", plainObs, tracedObs)
			}
		})
	}
}
