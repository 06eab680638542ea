// Command perfbench is the end-to-end PBIO stream benchmark.  It drives
// the real stack in one process over loopback TCP — a pbio.Writer, zero
// or two relay.Server hops, a pbio.Reader and DecodeInto/DecodeBatch —
// checks every delivered record, and prints every metric by name with its
// unit.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, from a run that times every public call the
// harness makes and writes the spans as Chrome trace-event JSON.  See
// README.md for the workloads, the load model and the metric map.
//
// Usage:
//
//	perfbench -workload hetero-10k-direct -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupsPerRound is how many extra stacks a pass sets up (and tears
// down) before each round; set-up time is reported as the median over
// all of them.
const setupsPerRound = 1

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same records")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, for the fingerprint")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	d := time.Duration(*seconds) * time.Second

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("workload: %s\n", w.why)
	fp, _ := json.Marshal(takeFingerprint(*commit))
	fmt.Printf("fingerprint: %s\n", fp)
	fmt.Println("load: closed-loop steps of", w.stepLen(), "record(s), one in flight, alternating with unpaced saturating phases; loopback TCP, one producer and one consumer goroutine")

	st, err := selfTest(*seed)
	if err != nil {
		return fmt.Errorf("checker self-test: %w", err)
	}
	fmt.Printf("checker self-test: injected 1 corrupted and 1 dropped record into %d attempted; checker counted %d failed (fail_ratio %.4g): %s\n",
		st.attempted, st.failed, ratio(float64(st.failed), float64(st.attempted)), verdict(st.ok()))

	res := result{Metrics: map[string]metric{}}
	var tally tally
	if *trace == 0 {
		err = untraced(w, *seed, d, &res, &tally)
	} else {
		err = traced(w, *seed, d, ".bench_build/traces/"+w.name+".json", &res, &tally)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = tally.attempted, tally.failed
	res.Correct = st.ok() && tally.failed == 0 && tally.compared > 0 && tally.err == nil
	if tally.err != nil {
		fmt.Println("stream error:", tally.err)
	}
	fmt.Printf("check: %s — attempted %d, failed %d (fail_ratio %g), %d records compared with the interpreter oracle\n",
		verdict(res.Correct), res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), tally.compared)

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// tally accumulates the checker's books across every stack of a run.
type tally struct {
	attempted, failed, compared int64
	err                         error
}

func (t *tally) add(r *runner) {
	attempted, failed, err := r.finish()
	t.attempted += attempted
	t.failed += failed
	t.compared += r.s.cons.chk.compared
	if t.err == nil {
		t.err = err
	}
}

// measured is what one untraced pass yields.
type measured struct {
	satRPS, latP50        float64
	latP99                float64
	latN                  int
	cpuUS, allocs, abytes float64
}

// setupRun sets stacks up and keeps their set-up timings: the measured
// stack's own, and those of extra stacks set up and torn down between
// rounds, so that set-up is sampled across the whole run.
type setupRun struct {
	w      workload
	seed   uint64
	traced bool
	log    *spanLog
	t      *tally
	times  []setupTimes
}

// stack sets up one stack and notes its timings.
func (p *setupRun) stack() (*stack, error) {
	s, err := newStack(p.w, p.seed, p.traced, p.log, 1<<32+uint64(len(p.times)))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.times = append(p.times, s.setup)
	return s, nil
}

// extra sets up and tears down n more stacks.
func (p *setupRun) extra(n int) error {
	for i := 0; i < n; i++ {
		s, err := p.stack()
		if err != nil {
			return err
		}
		p.t.attempted++ // its first record, checked in set-up
		s.close()
	}
	return nil
}

// median returns the median of one set-up timing over every stack, in
// seconds.
func (p *setupRun) median(part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(p.times))
	for i, t := range p.times {
		xs[i] = part(t).Seconds()
	}
	return median(xs)
}

// untracedPass measures one stack without instrumentation, setting up
// setupsPerRound extra stacks before each round.
func untracedPass(w workload, seed uint64, d time.Duration, setupsPerRound int, t *tally) (measured, *setupRun, error) {
	var m measured
	sr := &setupRun{w: w, seed: seed, t: t}
	s, err := sr.stack()
	if err != nil {
		return m, sr, err
	}
	r := newRunner(s, false)
	r.between = func() error { return sr.extra(setupsPerRound) }
	err = r.pass(d)
	t.add(r)
	if err != nil {
		return m, sr, err
	}
	var rps, cpu, allocs, abytes []float64
	for _, s := range r.sat {
		n := float64(s.recs)
		rps = append(rps, n/s.dur.Seconds())
		cpu = append(cpu, us(s.cpu)/n)
		allocs = append(allocs, float64(s.allocs)/n)
		abytes = append(abytes, float64(s.allocBytes)/n)
	}
	m.satRPS, m.cpuUS, m.allocs, m.abytes = median(rps), median(cpu), median(allocs), median(abytes)
	m.latN = len(r.lat)
	m.latP50, m.latP99 = percentile(r.lat, 0.50), percentile(r.lat, 0.99)
	return m, sr, nil
}

func untraced(w workload, seed uint64, d time.Duration, res *result, t *tally) error {
	m, sr, err := untracedPass(w, seed, d, setupsPerRound, t)
	if err != nil {
		return err
	}
	fmt.Printf("latency: p50 %.2f µs, p99 %.2f µs over %d steps (p99 not gated)\n", m.latP50, m.latP99, m.latN)
	put := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
	put("setup_s", sr.median(setupTimes.total), "s")
	put("sat_rps", m.satRPS, "rec/s")
	put("lat_p50_us", m.latP50, "us")
	put("cpu_us_per_rec", m.cpuUS, "us")
	fmt.Printf("allocations: %.4f objects, %.1f bytes per record (per-layer metrics runtime.allocs_per_rec, runtime.alloc_bytes_per_rec)\n", m.allocs, m.abytes)
	return nil
}
