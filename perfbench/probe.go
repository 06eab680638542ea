package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine and timer regime a result came
// from.  Results with different fingerprints are not comparable.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Sleep100us float64 `json:"sleep_100us_median_us"`
}

func takeFingerprint(commit string) fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}
	const n = 101
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		time.Sleep(100 * time.Microsecond)
		d[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	fp.Sleep100us = median(d)
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// ioCounts are the process's /proc/self/io syscall counters.
type ioCounts struct{ syscr, syscw, wchar int64 }

// readIO reads /proc/self/io with exactly one read(2), which the kernel
// counts in syscr after producing the figures: a delta between two reads
// therefore includes exactly one read of the harness's own (subtracted in
// sub).
func readIO() ioCounts {
	var c ioCounts
	fd, err := syscall.Open("/proc/self/io", syscall.O_RDONLY, 0)
	if err != nil {
		return c
	}
	var buf [512]byte
	n, err := syscall.Read(fd, buf[:])
	syscall.Close(fd)
	if err != nil || n <= 0 {
		return c
	}
	for _, line := range bytes.Split(buf[:n], []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		x, _ := strconv.ParseInt(string(v), 10, 64)
		switch string(k) {
		case "syscr":
			c.syscr = x
		case "syscw":
			c.syscw = x
		case "wchar":
			c.wchar = x
		}
	}
	return c
}

func (c ioCounts) sub(prev ioCounts) ioCounts {
	return ioCounts{syscr: c.syscr - prev.syscr - 1, syscw: c.syscw - prev.syscw, wchar: c.wchar - prev.wchar}
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rt reads the runtime/metrics the benchmark reports.
type rt struct {
	s []metrics.Sample
}

const (
	rtAllocObjects = iota
	rtAllocBytes
	rtGCCycles
	rtGCCPU
	rtTotalCPU
	rtSchedLat
	rtHeapObjects
	rtGoroutines
)

func newRT() *rt {
	names := []string{
		"/gc/heap/allocs:objects",
		"/gc/heap/allocs:bytes",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/sched/latencies:seconds",
		"/memory/classes/heap/objects:bytes",
		"/sched/goroutines:goroutines",
	}
	r := &rt{s: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.s[i].Name = n
	}
	return r
}

// rtSnap is one reading of the runtime counters.
type rtSnap struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
	schedCounts                        []uint64
	schedBuckets                       []float64
	heapObjects, goroutines            uint64
}

func (r *rt) read() rtSnap {
	metrics.Read(r.s)
	u := func(i int) uint64 {
		if r.s[i].Value.Kind() == metrics.KindUint64 {
			return r.s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if r.s[i].Value.Kind() == metrics.KindFloat64 {
			return r.s[i].Value.Float64()
		}
		return 0
	}
	snap := rtSnap{
		allocObjects: u(rtAllocObjects),
		allocBytes:   u(rtAllocBytes),
		gcCycles:     u(rtGCCycles),
		gcCPU:        f(rtGCCPU),
		totalCPU:     f(rtTotalCPU),
		heapObjects:  u(rtHeapObjects),
		goroutines:   u(rtGoroutines),
	}
	if r.s[rtSchedLat].Value.Kind() == metrics.KindFloat64Histogram {
		h := r.s[rtSchedLat].Value.Float64Histogram()
		snap.schedCounts = append([]uint64(nil), h.Counts...)
		snap.schedBuckets = h.Buckets
	}
	return snap
}

// histP99 is the p99 of a runtime/metrics histogram's counts, in
// microseconds, interpolated linearly inside the bucket that holds it
// (the buckets are coarse: 64 ns wide at the bottom).
func histP99(counts []uint64, buckets []float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(buckets) != len(counts)+1 {
		return 0
	}
	want := 0.99 * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < want {
			seen += float64(c)
			continue
		}
		lo, hi := max(buckets[i], 0), buckets[i+1]
		if math.IsInf(hi, 1) {
			return lo * 1e6
		}
		return (lo + (want-seen)/float64(c)*(hi-lo)) * 1e6
	}
	return 0
}
