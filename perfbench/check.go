package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/abi"
	"repro/internal/bench"
	"repro/internal/convert"
	"repro/internal/wire"
	"repro/pbio"
)

// Every record carries its sequence number and check values derived from
// (seed, seq).  The generator stamps them into the sender's native image;
// the checker reads them back out of the decoded record and also compares
// every sampleEvery-th decoded record, byte for byte, with what the
// table-driven interpreter (internal/convert, the repo's reference
// converter) makes of the same sender bytes.

const (
	// templates is the number of distinct bulk payloads a run cycles
	// through (record seq uses template seq%templates).
	templates = 4
	// sampleEvery spaces the oracle comparisons; prime so the samples
	// visit every template.
	sampleEvery = 97
	// maxSamples bounds the decoded records held for the oracle per phase.
	maxSamples = 512
)

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checkValues are the per-record values derived from (seed, seq).
type checkValues struct {
	node     int32
	flags    uint32
	residual float32
	first    float64 // values[0]
	last     float64 // values[n-1]
}

func valuesFor(seed, seq uint64) checkValues {
	h := mix(seed ^ mix(seq))
	h2 := mix(h)
	return checkValues{
		node:     int32(h),
		flags:    uint32(h >> 32),
		residual: float32(h2&0xffffff) / 64,
		first:    float64(h >> 11),
		last:     float64(h2 >> 11),
	}
}

// layout locates the checked fields inside one native record image.
type layout struct {
	order                                binary.ByteOrder
	node, timestamp, iter, iterSize      int
	residual, flags, values, valuesCount int
	size                                 int
}

func layoutOf(f *pbio.Format, order binary.ByteOrder) (layout, error) {
	l := layout{order: order, size: f.Size()}
	found := 0
	for _, fi := range f.Fields() {
		switch fi.Name {
		case "node":
			l.node = fi.Offset
		case "timestamp":
			l.timestamp = fi.Offset
		case "iter":
			l.iter, l.iterSize = fi.Offset, fi.Size
		case "residual":
			l.residual = fi.Offset
		case "flags":
			l.flags = fi.Offset
		case "values":
			l.values, l.valuesCount = fi.Offset, fi.Count
		default:
			continue
		}
		found++
	}
	if found != 6 || l.valuesCount < 2 {
		return l, fmt.Errorf("format %s lacks the mixed record's checked fields", f.Name())
	}
	return l, nil
}

// stamp writes seq and its check values into a native image.
func (l *layout) stamp(buf []byte, seed, seq uint64) {
	v := valuesFor(seed, seq)
	o := l.order
	o.PutUint32(buf[l.node:], uint32(v.node))
	o.PutUint64(buf[l.timestamp:], math.Float64bits(float64(seq)))
	if l.iterSize == 8 {
		o.PutUint64(buf[l.iter:], seq)
	} else {
		o.PutUint32(buf[l.iter:], uint32(seq))
	}
	o.PutUint32(buf[l.residual:], math.Float32bits(v.residual))
	o.PutUint32(buf[l.flags:], v.flags)
	o.PutUint64(buf[l.values:], math.Float64bits(v.first))
	o.PutUint64(buf[l.values+8*(l.valuesCount-1):], math.Float64bits(v.last))
}

// seq32 reads the low 32 bits of the record's sequence number.
func (l *layout) seq32(buf []byte) uint32 { return l.order.Uint32(buf[l.iter:]) }

// valid reports whether buf carries seq's check values.
func (l *layout) valid(buf []byte, seed, seq uint64) bool {
	v := valuesFor(seed, seq)
	o := l.order
	return o.Uint32(buf[l.node:]) == uint32(v.node) &&
		o.Uint64(buf[l.timestamp:]) == math.Float64bits(float64(seq)) &&
		o.Uint32(buf[l.residual:]) == math.Float32bits(v.residual) &&
		o.Uint32(buf[l.flags:]) == v.flags &&
		o.Uint64(buf[l.values:]) == math.Float64bits(v.first) &&
		o.Uint64(buf[l.values+8*(l.valuesCount-1):]) == math.Float64bits(v.last)
}

// generator builds the producer's records: a ring of records whose bulk
// payload is one of a few seed-derived templates (slot k holds template
// k%templates) and whose per-record fields are re-stamped for every seq.
type generator struct {
	seed uint64
	lay  layout
	recs []*pbio.Record
}

// newGenerator sizes the ring to hold at least ring records, so a whole
// step can be stamped before it is sent.
func newGenerator(f *pbio.Format, seed uint64, ring int) (*generator, error) {
	lay, err := layoutOf(f, binary.BigEndian) // the sender is sparc-v8
	if err != nil {
		return nil, err
	}
	ring = (max(ring, templates) + templates - 1) / templates * templates
	g := &generator{seed: seed, lay: lay, recs: make([]*pbio.Record, ring)}
	for k := range g.recs {
		if k >= templates {
			g.recs[k] = g.recs[k%templates].Clone()
			continue
		}
		rec := f.NewRecord()
		if err := rec.SetString("tag", fmt.Sprintf("bench-%x-%d", seed&0xffff, k)); err != nil {
			return nil, err
		}
		for i := 0; i < lay.valuesCount; i++ {
			if err := rec.SetFloat("values", i, float64(mix(seed^uint64(k)<<40^uint64(i))>>11)); err != nil {
				return nil, err
			}
		}
		g.recs[k] = rec
	}
	return g, nil
}

// record returns the producer's record for seq, stamped.  It is a ring
// slot, valid until the generator is asked for seq+len(ring).
func (g *generator) record(seq uint64) *pbio.Record {
	rec := g.recs[seq%uint64(len(g.recs))]
	g.lay.stamp(rec.Bytes(), g.seed, seq)
	return rec
}

// oracle converts sender images with the interpreter, independently of
// the DCG engines and the transport the benchmark measures.  It runs on
// the consumer goroutine and keeps its own copies of the templates.
type oracle struct {
	seed      uint64
	lay       layout
	templates [templates][]byte
	interp    *convert.Interp
	src       []byte
	want      []byte
}

func newOracle(gen *generator, n int) (*oracle, error) {
	wf, err := wire.Layout(bench.MixedSchema(n), &abi.SparcV8)
	if err != nil {
		return nil, err
	}
	nf, err := wire.Layout(bench.MixedSchema(n), &abi.X86)
	if err != nil {
		return nil, err
	}
	if wf.Size != gen.lay.size {
		return nil, fmt.Errorf("oracle: sender layout is %d bytes, producer records %d", wf.Size, gen.lay.size)
	}
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		return nil, err
	}
	o := &oracle{seed: gen.seed, lay: gen.lay, interp: convert.NewInterp(plan), src: make([]byte, wf.Size), want: make([]byte, nf.Size)}
	for k := range o.templates {
		o.templates[k] = bytes.Clone(gen.recs[k].Bytes())
	}
	return o, nil
}

// matches reports whether got is the interpreter's conversion of seq's
// sender image.
func (o *oracle) matches(seq uint64, got []byte) bool {
	copy(o.src, o.templates[seq%templates])
	o.lay.stamp(o.src, o.seed, seq)
	clear(o.want)
	if err := o.interp.Convert(o.want, o.src); err != nil {
		return false
	}
	return bytes.Equal(o.want, got)
}

// checker verifies the consumer's decoded records.  It is used by the
// consumer goroutine only; the producer reads its totals after a phase
// has drained.
type checker struct {
	seed uint64
	lay  layout // the receiver's (x86, little-endian) layout
	next uint64 // next expected seq

	missing    int64 // seqs skipped over
	misordered int64 // duplicated or out-of-order records
	corrupt    int64 // records whose check values are wrong
	decodeErrs int64

	// Oracle samples held until the phase drains.
	sampleSeq []uint64
	sampleBuf [][]byte
	compared  int64
	mismatch  int64
}

func newChecker(recv *pbio.Format, seed uint64) (*checker, error) {
	lay, err := layoutOf(recv, binary.LittleEndian)
	if err != nil {
		return nil, err
	}
	return &checker{seed: seed, lay: lay}, nil
}

// seqOf reconstructs a record's full sequence number from the 32 bits it
// carries, relative to the next expected one.
func (c *checker) seqOf(buf []byte) uint64 {
	return c.next + uint64(int64(int32(c.lay.seq32(buf)-uint32(c.next))))
}

// check verifies one decoded record.
func (c *checker) check(buf []byte) {
	seq := c.seqOf(buf)
	switch {
	case seq < c.next:
		c.misordered++
		return
	case seq > c.next:
		c.missing += int64(seq - c.next)
	}
	c.next = seq + 1
	if !c.lay.valid(buf, c.seed, seq) {
		c.corrupt++
		return
	}
	if i := len(c.sampleSeq); seq%sampleEvery == 0 && i < maxSamples {
		if i == len(c.sampleBuf) {
			c.sampleBuf = append(c.sampleBuf, make([]byte, c.lay.size))
		}
		copy(c.sampleBuf[i], buf)
		c.sampleSeq = append(c.sampleSeq, seq)
	}
}

// verifySamples runs the oracle over the held samples and releases them.
func (c *checker) verifySamples(o *oracle) {
	for i, seq := range c.sampleSeq {
		c.compared++
		if !o.matches(seq, c.sampleBuf[i]) {
			c.mismatch++
		}
	}
	c.sampleSeq = c.sampleSeq[:0]
}

// failed counts every failed record: missing, duplicated or out of
// order, wrong check values, decode errors, and oracle mismatches.
func (c *checker) failed() int64 {
	return c.missing + c.misordered + c.corrupt + c.decodeErrs + c.mismatch
}
