package main

import (
	"fmt"
	"time"
)

// The checker's self-test: a short direct stream of 100 B records in
// which the harness itself drops one record and corrupts another.  The
// checker passes only if it counts exactly those two as failed.
const (
	selfTestRecords = 1000
	selfTestDrop    = 500
	selfTestCorrupt = 700
)

type selfTestResult struct {
	attempted, failed int64
}

func (r selfTestResult) ok() bool {
	return r.attempted == selfTestRecords && r.failed == 2
}

func selfTest(seed uint64) (selfTestResult, error) {
	var res selfTestResult
	s, err := newStack(workload{name: "self-test", size: "100b"}, seed, false, nil, 0)
	if err != nil {
		return res, err
	}
	r := newRunner(s, false)
	defer r.watch(5 * time.Second)()
	last := uint64(selfTestRecords - 1)
	s.waitSeq.Store(last)
	for seq := uint64(1); seq <= last; seq++ {
		if seq == selfTestDrop {
			continue
		}
		rec := r.s.gen.record(seq)
		if seq == selfTestCorrupt {
			rec.Bytes()[s.gen.lay.node] ^= 0x40
		}
		if err := s.wr.Write(rec); err != nil {
			return res, err
		}
	}
	r.seq = last + 1
	_, werr := r.await()
	attempted, failed, err := r.finish()
	if werr != nil {
		return res, werr
	}
	if err != nil {
		return res, fmt.Errorf("stream: %w", err)
	}
	return selfTestResult{attempted: attempted, failed: failed}, nil
}
