package main

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// The traced run.  Its first half repeats the untraced measurement as
// the reference for the tracing-overhead line; its second half sets up
// with telemetry registries and spans, then times every public call the
// harness makes — Write/Flush, Read (with the socket reads inside it
// timed separately), DecodeInto/DecodeBatch — and samples relay queues
// and runtime gauges.  On relay workloads a short extra pass over a
// direct per-record stack of the same record gives the per-hop relay
// allocation count by difference.

func traced(w workload, seed uint64, d time.Duration, out string, res *result, t *tally) error {
	ref, _, err := untracedPass(w, seed, d/2, 0, t)
	if err != nil {
		return fmt.Errorf("untraced reference: %w", err)
	}

	sr := &setupRun{w: w, seed: seed, traced: true, log: newSpanLog(3, 3), t: t}
	s, err := sr.stack()
	if err != nil {
		return err
	}
	r := newRunner(s, true)
	r.between = func() error { return sr.extra(setupsPerRound) }
	err = r.pass(d / 2)
	t.add(r)
	if err != nil {
		return err
	}

	put := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }

	// Set-up.
	put("setup.context_us", 1e6*sr.median(func(t setupTimes) time.Duration { return t.context }), "us")
	put("setup.relay_us", 1e6*sr.median(func(t setupTimes) time.Duration { return t.relay }), "us")
	put("setup.connect_us", 1e6*sr.median(func(t setupTimes) time.Duration { return t.connect }), "us")
	put("setup.first_record_us", 1e6*sr.median(func(t setupTimes) time.Duration { return t.first }), "us")
	hits := counter(s.consReg, "pbio_dcg_cache_hits_total") + counter(s.consReg, "pbio_dcg_batch_cache_hits_total")
	misses := counter(s.consReg, "pbio_dcg_cache_misses_total") + counter(s.consReg, "pbio_dcg_batch_cache_misses_total")
	put("dcg.compiles", float64(misses), "count")
	put("dcg.compile_us", float64(histSum(s.consReg, "pbio_dcg_compile_nanos")+histSum(s.consReg, "pbio_dcg_batch_compile_nanos"))/1e3, "us")
	put("dcg.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")

	// pbio, transport, runtime: sums over the traced saturating rounds.
	var recs, writeNs, readNs, decodeNs, syscr, syscw, wchar, gcCycles int64
	var gcCPU, totalCPU float64
	var smp sampleStats
	var sched []uint64
	var buckets []float64
	for _, s := range r.sat {
		recs += s.recs
		writeNs += s.writeNs
		readNs += s.stats.readNs
		decodeNs += s.stats.decodeNs
		syscr += s.io.syscr
		syscw += s.io.syscw
		wchar += s.io.wchar
		gcCycles += int64(s.gcCycles)
		gcCPU += s.gcCPU
		totalCPU += s.totalCPU
		smp.depthSum += s.samples.depthSum
		smp.depthN += s.samples.depthN
		smp.depthMax = max(smp.depthMax, s.samples.depthMax)
		smp.heapMax = max(smp.heapMax, s.samples.heapMax)
		smp.goroutinesMax = max(smp.goroutinesMax, s.samples.goroutinesMax)
		if sched == nil {
			sched, buckets = make([]uint64, len(s.sched)), s.buckets
		}
		for i := range s.sched {
			if i < len(sched) {
				sched[i] += s.sched[i]
			}
		}
	}
	n := float64(recs)
	put("pbio.write.ns_per_rec", float64(writeNs)/n, "ns")
	put("pbio.read.ns_per_rec", float64(readNs)/n, "ns")
	put("pbio.decode.ns_per_rec", float64(decodeNs)/n, "ns")
	dec := make([]float64, len(s.cons.decodeNs))
	for i, v := range s.cons.decodeNs {
		dec[i] = float64(v)
	}
	put("pbio.decode.p99_ns", percentile(dec, 0.99), "ns")
	paths := map[string]int64{}
	var decodes int64
	for _, p := range []string{"dcg", "dcg_batch", "zero_copy", "interp"} {
		paths[p] = counter(s.consReg, "pbio_decodes_total", "path", p)
		decodes += paths[p]
	}
	for p, v := range paths {
		put("pbio.decode_path_share."+p, ratio(float64(v), float64(decodes)), "ratio")
	}

	sent := float64(counter(s.prodReg, "pbio_records_sent_total"))
	put("transport.write_syscalls_per_rec", float64(syscw)/n, "count")
	put("transport.read_syscalls_per_rec", float64(syscr)/n, "count")
	put("transport.bytes_per_write", ratio(float64(wchar), float64(syscw)), "bytes")
	put("transport.frames_per_rec", ratio(float64(counter(s.prodReg, "pbio_transport_frames_written_total")), sent), "count")
	put("transport.inflight_us_p50", percentile(r.flight, 0.5), "us")

	// Step breakdown: write + read + decode + in-flight = step latency.
	put("step.lat_p50_us", percentile(r.lat, 0.5), "us")
	put("step.write_us_p50", percentile(r.write, 0.5), "us")
	put("step.read_us_p50", percentile(r.read, 0.5), "us")
	put("step.decode_us_p50", percentile(r.decode, 0.5), "us")
	put("step.accounted_share", ratio(float64(r.accounted), float64(len(r.lat))), "ratio")

	// Relays.
	var dropped, resyncs, sums int64
	for i := 0; i < 2; i++ {
		var frames float64
		if i < len(s.relays) {
			st := s.relays[i].Stats()
			frames = float64(st.Frames)
			dropped += st.QueueDroppedFrames
			resyncs += st.Resyncs
			sums += st.ChecksumFailures
		}
		put(fmt.Sprintf("relay.frames_per_rec.hop%d", i+1), ratio(frames, sent), "count")
	}
	put("relay.queue_depth_mean", ratio(float64(smp.depthSum), float64(smp.depthN)), "frames")
	put("relay.queue_depth_max", float64(smp.depthMax), "frames")
	put("relay.queue_dropped_frames", float64(dropped), "count")
	put("relay.resyncs", float64(resyncs), "count")
	put("relay.checksum_failures", float64(sums), "count")
	perHop := 0.0
	if w.hops > 0 {
		direct := workload{name: w.name + "-direct", size: w.size}
		dm, _, err := untracedPass(direct, seed, 2*time.Second, 0, t)
		if err != nil {
			return fmt.Errorf("direct comparison pass: %w", err)
		}
		perHop = (ref.allocs - dm.allocs) / float64(w.hops)
		fmt.Printf("relay allocations: %.3f objects/record with %d hops, %.3f direct: %.3f per hop\n", ref.allocs, w.hops, dm.allocs, perHop)
	}
	put("relay.allocs_per_rec_per_hop", perHop, "objects")

	// Runtime.  Allocation counts come from the untraced half, which runs
	// the stack exactly as an untraced run does.
	put("runtime.allocs_per_rec", ref.allocs, "objects")
	put("runtime.alloc_bytes_per_rec", ref.abytes, "bytes")
	put("runtime.gc_cycles_per_mrec", float64(gcCycles)*1e6/n, "count")
	put("runtime.gc_cpu_share", ratio(gcCPU, totalCPU), "ratio")
	put("runtime.heap_peak_mb", float64(smp.heapMax)/(1<<20), "MiB")
	put("runtime.goroutines_max", float64(smp.goroutinesMax), "count")
	put("runtime.sched_lat_p99_us", histP99(sched, buckets), "us")

	// Tracing overhead: the traced half against the untraced half.
	var rps []float64
	for _, s := range r.sat {
		rps = append(rps, float64(s.recs)/s.dur.Seconds())
	}
	tracedRPS, tracedP50 := median(rps), percentile(r.lat, 0.5)
	fmt.Printf("tracing overhead: sat_rps %.0f traced vs %.0f untraced (%+.1f%%), lat_p50_us %.2f traced vs %.2f untraced (%+.1f%%)\n",
		tracedRPS, ref.satRPS, 100*(tracedRPS/ref.satRPS-1), tracedP50, ref.latP50, 100*(tracedP50/ref.latP50-1))
	put("trace.sat_rps_ratio", ratio(tracedRPS, ref.satRPS), "ratio")
	put("trace.lat_p50_ratio", ratio(tracedP50, ref.latP50), "ratio")

	// Checker books over every pass of this run.
	put("check.fail_ratio", ratio(float64(t.failed), float64(t.attempted)), "ratio")
	put("check.oracle_compared", float64(t.compared), "count")

	nspans, err := writeChrome(out, sr.log, r.log, s.cons.log)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s (Chrome trace-event JSON; open with pbio-trace or Perfetto)\n", nspans, out)
	return nil
}

// counter sums a registry family's series whose labels match the given
// key/value pairs.
func counter(reg *telemetry.Registry, name string, kv ...string) int64 {
	var sum int64
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
	series:
		for _, s := range m.Series {
			for i := 0; i+1 < len(kv); i += 2 {
				if s.Labels[kv[i]] != kv[i+1] {
					continue series
				}
			}
			sum += s.Value
		}
	}
	return sum
}

// histSum is the sum of a histogram family's observations.
func histSum(reg *telemetry.Registry, name string) int64 {
	var sum int64
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, s := range m.Series {
			if s.Histogram != nil {
				sum += s.Histogram.Sum
			}
		}
	}
	return sum
}
