package relay

import (
	"bytes"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/flightrec"
	"repro/internal/leakcheck"
	"repro/pbio"
)

// chaosProfile is one cell of the soak matrix: fault profiles applied to
// the producer links and the consumer links independently.
type chaosProfile struct {
	name     string
	producer faultnet.Profile // seed is derived per connection
	consumer faultnet.Profile
	// lossy marks profiles where records may legitimately not arrive
	// (drops, corruption); only lossless profiles assert full delivery.
	lossy bool
	// singleArch forces all producers onto one architecture.  Corruption
	// profiles require it: with exactly one wire format in flight, a
	// damaged format ID can only miss — it can never alias another valid
	// format of the same size and be misdelivered.
	singleArch bool
}

// chaosSeed returns the base seed for this run: CHAOS_SEED replays a
// previous run exactly; otherwise the wall clock picks a fresh one.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// consResult is what one chaos consumer observed.
type consResult struct {
	valid    int // records that decoded and matched the expected bytes exactly
	invalid  int // records delivered as valid but with wrong contents — must be zero
	rejected int // reads that failed with a detected error (corruption, EOF, ...)
}

// TestChaosSoak drives N producers and M consumers through the relay
// over fault-injecting links and checks the protocol's core promises
// under fire: no panic, no goroutine leaks, and — above all — no corrupt
// record is ever delivered as valid.  Every delivered record must be
// byte-identical to the record a fault-free producer would have written,
// as converted to the consumer's architecture.
//
// The run is reproducible: the base seed is printed at start and can be
// replayed with CHAOS_SEED=<seed>.  CHAOS_LONG=1 runs the full-length
// soak; the default is a short smoke of the same matrix.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	seed := chaosSeed(t)
	t.Logf("chaos base seed %d — replay with CHAOS_SEED=%d", seed, seed)

	const corruptProb = 0.004
	profiles := []chaosProfile{
		{name: "clean"},
		{
			name:     "fragmented",
			producer: faultnet.Profile{ShortReads: true, FragmentWrites: true},
			consumer: faultnet.Profile{ShortReads: true, FragmentWrites: true},
		},
		{
			// Latency rides the producer links only: a consumer slowed the
			// same way would (correctly) overflow its relay queue and be
			// dropped, which is the lossy drop test's job, not this one's.
			name:     "latency",
			producer: faultnet.Profile{FragmentWrites: true, Latency: 200 * time.Microsecond},
			consumer: faultnet.Profile{ShortReads: true},
		},
		{
			name:       "corrupt-producer",
			producer:   faultnet.Profile{CorruptProb: corruptProb},
			lossy:      true,
			singleArch: true,
		},
		{
			name:       "corrupt-consumer",
			consumer:   faultnet.Profile{CorruptProb: corruptProb},
			lossy:      true,
			singleArch: true,
		},
		{
			name:     "drops",
			producer: faultnet.Profile{FragmentWrites: true, DropAfter: 1500},
			lossy:    true,
		},
	}
	for _, cp := range profiles {
		cp := cp
		t.Run(cp.name, func(t *testing.T) {
			runChaos(t, cp, seed)
		})
	}
}

func runChaos(t *testing.T, cp chaosProfile, seed int64) {
	leakcheck.Check(t)

	nProducers, nConsumers, records := 3, 3, 40
	if os.Getenv("CHAOS_LONG") != "" {
		nProducers, nConsumers, records = 4, 5, 400
	}
	total := nProducers * records

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
	s.SetTimeouts(5*time.Second, 5*time.Second)
	// End-to-end integrity: producers checksum their frames, and the relay
	// checksums the meta frames it re-encodes — without this, meta on the
	// consumer link is the one unprotected hop, and a corrupted format
	// description silently mis-decodes every record that follows it.
	s.SetChecksums(true)
	rec := flightrec.New("chaos", 4096)
	s.SetFlight(rec)
	go func() { _ = s.ServeProducers(pln) }()
	go func() { _ = s.ServeConsumers(cln) }()
	defer func() {
		pln.Close()
		cln.Close()
		s.Close()
	}()

	// Consumers subscribe first so live broadcasts reach everyone.
	prodArches := []string{"sparc-v8", "x86", "alpha", "sparc-v9-64"}
	consArches := []string{"x86", "alpha", "sparc-v8", "x86-64", "alpha"}
	results := make(chan consResult, nConsumers)
	var consConns struct {
		sync.Mutex
		conns []net.Conn
	}
	// Per-consumer progress counters, for producer-side flow control in
	// lossless profiles (the relay itself has none by design: a consumer
	// that falls a queue behind is dropped, which is correct for a broker
	// but fatal to a full-delivery assertion).
	consumed := make([]atomic.Int64, nConsumers)
	var written atomic.Int64
	for ci := 0; ci < nConsumers; ci++ {
		go func(ci int) {
			res := consResult{}
			defer func() { results <- res }()
			raw, err := net.Dial("tcp", cln.Addr().String())
			if err != nil {
				return
			}
			conn := net.Conn(raw)
			if !zeroProfile(cp.consumer) {
				conn = faultnet.Wrap(raw, cp.consumer.WithSeed(seed+int64(100+ci)))
			}
			consConns.Lock()
			consConns.conns = append(consConns.conns, conn)
			consConns.Unlock()

			ctx, err := pbio.NewContext(pbio.WithArch(consArches[ci%len(consArches)]))
			if err != nil {
				t.Error(err)
				return
			}
			cf, err := ctx.Register("sample",
				pbio.F("seq", pbio.Int),
				pbio.F("v", pbio.Double),
				pbio.Array("tag", pbio.Char, 8),
			)
			if err != nil {
				t.Error(err)
				return
			}
			r := ctx.NewReader(conn)
			r.SetTimeout(15 * time.Second)
			expected := cf.NewRecord()
			rec := cf.NewRecord()
			for {
				m, err := r.Read()
				if err != nil {
					// Any detected failure — corruption, peer gone, EOF,
					// deadline — ends this consumer.  A pbio stream has no
					// relay between it and the fault, so after a framing
					// error the stream is not trustworthy; stopping is the
					// correct response, delivering garbage is the bug.
					res.rejected++
					return
				}
				if err := m.DecodeInto(cf, rec); err != nil {
					res.rejected++
					return
				}
				seq, _ := rec.Int("seq", 0)
				// Rebuild the record a fault-free producer would have
				// produced, converted to this consumer's architecture, and
				// demand byte identity.
				expected.MustSetInt("seq", 0, seq)
				expected.MustSetFloat("v", 0, float64(seq)*0.5)
				expected.MustSetString("tag", "pub")
				if seq < 0 || seq >= int64(nProducers*100000) ||
					!bytes.Equal(rec.Bytes(), expected.Bytes()) {
					res.invalid++
					t.Errorf("consumer %d: corrupt record delivered as valid (seq %d)", ci, seq)
					return
				}
				res.valid++
				consumed[ci].Add(1)
				if !cp.lossy && res.valid == total {
					return // lossless runs read exactly the full set
				}
			}
		}(ci)
	}
	time.Sleep(150 * time.Millisecond)

	// Producers publish disjoint seq ranges: producer pi owns
	// [pi*100000, pi*100000+records).
	var pwg sync.WaitGroup
	for pi := 0; pi < nProducers; pi++ {
		pwg.Add(1)
		go func(pi int) {
			defer pwg.Done()
			raw, err := net.Dial("tcp", pln.Addr().String())
			if err != nil {
				return
			}
			conn := net.Conn(raw)
			if !zeroProfile(cp.producer) {
				conn = faultnet.Wrap(raw, cp.producer.WithSeed(seed+int64(pi)))
			}
			defer conn.Close()
			arch := prodArches[0]
			if !cp.singleArch {
				arch = prodArches[pi%len(prodArches)]
			}
			ctx, err := pbio.NewContext(pbio.WithArch(arch))
			if err != nil {
				t.Error(err)
				return
			}
			f, err := ctx.Register("sample",
				pbio.F("seq", pbio.Int),
				pbio.F("v", pbio.Double),
				pbio.Array("tag", pbio.Char, 8),
			)
			if err != nil {
				t.Error(err)
				return
			}
			w := ctx.NewWriter(conn)
			w.EnableChecksums()
			w.SetTimeout(5 * time.Second)
			rec := f.NewRecord()
			for i := 0; i < records; i++ {
				// Lossless profiles assert full delivery, so producers
				// keep the number of frames in flight below the relay's
				// per-consumer queue depth; lossy profiles run flat out
				// and let the chips fall.
				if !cp.lossy {
					bail := time.Now().Add(15 * time.Second)
					for {
						slowest := consumed[0].Load()
						for k := 1; k < nConsumers; k++ {
							if v := consumed[k].Load(); v < slowest {
								slowest = v
							}
						}
						if written.Load()-slowest < consumerQueue-64 ||
							time.Now().After(bail) {
							break
						}
						time.Sleep(time.Millisecond)
					}
				}
				seq := int64(pi*100000 + i)
				rec.MustSetInt("seq", 0, seq)
				rec.MustSetFloat("v", 0, float64(seq)*0.5)
				rec.MustSetString("tag", "pub")
				if err := w.Write(rec); err != nil {
					// Injected drops and relay-side disconnects are part
					// of the experiment; a producer dying early is fine.
					return
				}
				written.Add(1)
			}
		}(pi)
	}
	pwg.Wait()

	// Lossless consumers exit on their own once they have the full set.
	// Lossy runs have no delivery promise, so give in-flight frames time
	// to drain and then cut the consumers loose.
	if cp.lossy {
		time.Sleep(500 * time.Millisecond)
		consConns.Lock()
		for _, c := range consConns.conns {
			c.Close()
		}
		consConns.Unlock()
	}
	defer func() {
		consConns.Lock()
		defer consConns.Unlock()
		for _, c := range consConns.conns {
			c.Close()
		}
	}()

	invalid, valid := 0, 0
	for i := 0; i < nConsumers; i++ {
		res := <-results
		invalid += res.invalid
		valid += res.valid
		if !cp.lossy && res.valid != total {
			t.Errorf("lossless profile: consumer got %d/%d records", res.valid, total)
		}
	}
	if invalid != 0 {
		t.Fatalf("%d corrupt records delivered as valid (seed %d)", invalid, seed)
	}
	st := s.Stats()
	t.Logf("profile %s: %d/%d records validated per-consumer total %d; relay stats %+v",
		cp.name, valid, total*nConsumers, valid, st)
	if !cp.lossy && (st.BadProducers != 0 || st.Resyncs != 0) {
		t.Errorf("lossless profile recorded producer errors: %+v", st)
	}
	// Every resync, checksum failure and dropped producer the relay
	// counted is journaled exactly once as its typed kind.  Producer
	// handlers may still be unwinding after their peers hung up, so
	// wait for the two books to agree.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, n := s.Stats(), journalCounts(t, rec)
		if n[flightrec.KindResync] == st.Resyncs &&
			n[flightrec.KindChecksumFailure] == st.ChecksumFailures &&
			n[flightrec.KindProducerDrop] == st.BadProducers {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("journal Resync/ChecksumFailure/ProducerDrop = %d/%d/%d, relay stats %d/%d/%d",
				n[flightrec.KindResync], n[flightrec.KindChecksumFailure], n[flightrec.KindProducerDrop],
				st.Resyncs, st.ChecksumFailures, st.BadProducers)
			break
		}
	}
}

// zeroProfile reports whether p injects no faults at all.
func zeroProfile(p faultnet.Profile) bool {
	return !p.ShortReads && !p.FragmentWrites && p.CorruptProb == 0 &&
		p.DropAfter == 0 && p.Latency == 0 && p.Model == nil
}
