package dcg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// maxShufRegion caps the record prefix a shuffle program covers.  Past
// it, long regular runs convert just as fast through the word-wide
// kernels, which need no per-block control bytes.
const maxShufRegion = 256

// buildRecordShuffle tries to compile the leading bytes of every record
// into one shuffle program: each 16-byte destination block gathers its
// bytes from one or two 16-byte source windows through precomputed
// PSHUFB control masks, where swaps become reversal lanes, moves copy
// lanes (shifted or not), and zero-fills — plus bytes only a residual op
// writes — zero lanes.  A handful of loads and shuffles per block then
// convert it regardless of how many fields or ops it spans: no per-op
// dispatch, no element loop, no scalar tail inside the region.  Ops the
// shuffle cannot express — integer/float converts, nested calls, the
// parts of runs past the region — come back in rest and lower through
// the regular kernels, which run after the shuffle and overwrite its
// zero lanes.  The region ends before the first block whose bytes span
// more than two windows.
//
// When inPlace is set the caller may alias dst and src.  The shuffle
// runs first and writes its whole region, so it is built only if no
// residual op reads source bytes inside that region and no block reads
// a source byte an earlier block has overwritten.
func buildRecordShuffle(code []Instr, ds, ss int, inPlace bool) (BatchOp, []Instr, bool) {
	if !shufAvailable() || ss < 16 {
		return BatchOp{}, code, false
	}
	var buf [maxShufRegion]int32
	for r := min(ds, maxShufRegion) &^ 15; r >= 16; {
		lanes := buf[:r] // source byte per destination byte; -1: zero
		for i := range lanes {
			lanes[i] = -1
		}
		covered, swapped, kept := 0, false, 0
		for _, in := range code {
			sub, tail, hasTail := subsumeShuffle(lanes, in)
			covered += sub
			swapped = swapped || (sub > 0 && in.Op == ISwap && in.Width > 1)
			if sub > 0 && !hasTail {
				continue
			}
			if sub > 0 {
				in = tail
			}
			kept++
			if inPlace && in.Op != IZero && in.Src < r {
				return BatchOp{}, code, false
			}
		}
		// A shuffle pass only pays for itself when it retires most of the
		// region and reverses at least one element; convert- or
		// step-dominated plans keep the kernel forms, and move-only plans
		// keep memmove (which an in-place identity move skips entirely).
		if !swapped || covered*2 < r {
			break
		}
		op, bad := gatherProgram(lanes, ss, inPlace)
		if bad >= 0 {
			r = 16 * bad
			continue
		}
		rest := make([]Instr, 0, kept)
		for _, in := range code {
			if sub, tail, hasTail := subsumeShuffle(lanes, in); sub == 0 {
				rest = append(rest, in)
			} else if hasTail {
				rest = append(rest, tail)
			}
		}
		return op, rest, true
	}
	return BatchOp{}, code, false
}

// shufZeroLane is the PSHUFB control byte whose high bit writes a zero
// into the destination lane.
const shufZeroLane = 0x80

// subsumeShuffle folds one instruction into the shuffle lanes (one
// source byte index per destination byte of the region) and returns the
// destination bytes it covered.  An op extending past the region is
// split: the part inside becomes lanes, the tail comes back as a
// residual instruction for the regular kernels.  Converts and calls
// cover 0 bytes and stay whole.
func subsumeShuffle(lanes []int32, in Instr) (covered int, tail Instr, hasTail bool) {
	r := len(lanes)
	if in.Dst >= r {
		return 0, tail, false
	}
	switch in.Op {
	case IMovBlk:
		fit := min(in.Len, r-in.Dst)
		if fit < in.Len {
			tail = Instr{Op: IMovBlk, Dst: in.Dst + fit, Src: in.Src + fit, Len: in.Len - fit}
			hasTail = true
		}
		for b := 0; b < fit; b++ {
			lanes[in.Dst+b] = int32(in.Src + b)
		}
		return fit, tail, hasTail
	case IZero:
		fit := min(in.Len, r-in.Dst)
		if fit < in.Len {
			tail = Instr{Op: IZero, Dst: in.Dst + fit, Len: in.Len - fit}
			hasTail = true
		}
		return fit, tail, hasTail // lanes stay zero
	case ISwap:
		w := in.Width
		fit := min(in.Count, (r-in.Dst)/w)
		if fit == 0 {
			return 0, tail, false
		}
		if fit < in.Count {
			tail = Instr{Op: ISwap, Dst: in.Dst + fit*w, Src: in.Src + fit*w,
				Count: in.Count - fit, Width: w}
			hasTail = true
		}
		for e := 0; e < fit; e++ {
			for b := 0; b < w; b++ {
				lanes[in.Dst+e*w+b] = int32(in.Src + e*w + w - 1 - b)
			}
		}
		return fit * w, tail, hasTail
	}
	return 0, tail, false
}

// gatherProgram turns shuffle lanes into per-block source windows and
// control masks.  Window A starts at the block's lowest source byte,
// window B at the lowest byte A cannot reach; both are clamped to end
// inside the ss-byte source record.  It returns the index of the first
// block that needs a third window — or, when inPlace, reads a source
// byte below its own offset, which an earlier block's store may have
// overwritten — or -1 when every block fits.
func gatherProgram(lanes []int32, ss int, inPlace bool) (BatchOp, int) {
	r := len(lanes)
	var mbuf [2 * maxShufRegion]byte // window A masks, then window B masks
	var wbuf [maxShufRegion / 8]int32
	for k := 0; k < r/16; k++ {
		blk := lanes[16*k : 16*k+16]
		a, b := -1, -1
		for _, s := range blk {
			if s >= 0 && (a < 0 || int(s) < a) {
				a = int(s)
			}
		}
		if inPlace && a >= 0 && a < 16*k {
			return BatchOp{}, k
		}
		a = min(max(a, 0), ss-16)
		for _, s := range blk {
			if int(s) >= a+16 && (b < 0 || int(s) < b) {
				b = int(s)
			}
		}
		if b >= 0 {
			b = min(b, ss-16)
		}
		for i, s := range blk {
			ma, mb := byte(shufZeroLane), byte(shufZeroLane)
			switch s := int(s); {
			case s < 0:
			case s < a+16:
				ma = byte(s - a)
			case b >= 0 && s < b+16:
				mb = byte(s - b)
			default:
				return BatchOp{}, k
			}
			mbuf[16*k+i], mbuf[r+16*k+i] = ma, mb
		}
		wbuf[2*k], wbuf[2*k+1] = int32(a), int32(b)
	}
	masks := append([]byte(nil), mbuf[:2*r]...)
	return BatchOp{Kind: BShuf, Masks: masks[:r:r], MasksB: masks[r:],
		Win: append([]int32(nil), wbuf[:r/8]...)}, -1
}

// lowerKernel compiles one run op into a kernel specialized with the
// record strides and intra-record offsets.
func lowerKernel(op BatchOp, ds, ss int) (kernel, error) {
	in := op.In
	switch op.Kind {
	case BMove:
		d, s, ln := in.Dst, in.Src, in.Len
		// An identity move (d == s) is a no-op whenever the conversion
		// runs in place (PBIO's receive-buffer reuse).  This is what
		// makes the paper's §4.4 advice — append new fields at the END
		// of evolving formats — nearly free for old receivers: every
		// expected field stays at its offset.
		identity := d == s
		return func(dst, src []byte, n int) {
			if identity && &dst[0] == &src[0] {
				return
			}
			for do, so := 0, 0; n > 0; n, do, so = n-1, do+ds, so+ss {
				copy(dst[do+d:do+d+ln], src[so+s:so+s+ln])
			}
		}, nil

	case BZero:
		d, ln := in.Dst, in.Len
		return func(dst, src []byte, n int) {
			for do := 0; n > 0; n, do = n-1, do+ds {
				clear(dst[do+d : do+d+ln])
			}
		}, nil

	case BSwapWide:
		return lowerSwapWide(op, ds, ss)

	case BShuf:
		return lowerShuf(op, ds, ss)

	case BStep:
		st, err := lower(in)
		if err != nil {
			return nil, err
		}
		return func(dst, src []byte, n int) {
			for do, so := 0, 0; n > 0; n, do, so = n-1, do+ds, so+ss {
				st(dst[do:], src[so:])
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: cannot lower run op %v", op.Kind)
}

// lowerShuf compiles a shuffle program: one gather of len(Masks)/16
// destination blocks per record, control masks and windows shared by
// every record of the run, all records in one call.  This is the
// branchless limit of the engine — the only per-record control flow is
// the block count.
func lowerShuf(op BatchOp, ds, ss int) (kernel, error) {
	ln := len(op.Masks)
	if ln == 0 || ln%16 != 0 || ln > ds || len(op.MasksB) != ln || len(op.Win) != ln/8 {
		return nil, fmt.Errorf("dcg: shuffle of %d mask bytes, %d windows for stride %d", ln, len(op.Win), ds)
	}
	for k, w := range op.Win {
		if (k%2 == 0 || w >= 0) && (w < 0 || int(w)+16 > ss) {
			return nil, fmt.Errorf("dcg: shuffle window at %d outside %d-byte source record", w, ss)
		}
	}
	ma, mb, win, nblk := &op.Masks[0], &op.MasksB[0], &op.Win[0], ln/16
	return func(dst, src []byte, n int) {
		// The record loop runs inside the gather: bounds-check the whole
		// run once, here.
		db, sb := dst[:(n-1)*ds+ln], src[:n*ss]
		gatherBlocks(&db[0], &sb[0], ma, mb, win, nblk, n, ds, ss)
	}, nil
}

// swap2Mask isolates the low byte of every 16-bit lane of a 64-bit word;
// the SWAR swap shifts the two halves of each lane past each other.
const swap2Mask = 0x00ff00ff00ff00ff

// lowerSwapWide compiles the word-wide swap forms.  Each run first
// goes through swapBlock — a PSHUFB shuffle covering 16 bytes per
// instruction where the CPU has it — and the scalar loops finish the
// tail (or the whole run elsewhere).  Every scalar load and store below
// is a binary.LittleEndian intrinsic — an unaligned 64-bit move on the
// machines we run on — so each word is load, reverse (one BSWAP plus at
// most a rotate or two shift-mask pairs), store.  The LittleEndian load
// + byte-reversal + LittleEndian store composition is
// direction-agnostic: reversing the bytes of each element converts
// big-endian wire data to a little-endian native layout and vice versa.
func lowerSwapWide(op BatchOp, ds, ss int) (kernel, error) {
	d, s := op.In.Dst, op.In.Src
	words, rem := op.Words, op.Rem
	switch op.In.Width {
	case 8:
		if words == 1 {
			// A single element per record — typically the tail a shuffle
			// region could not cover.  One load, reverse, store; paying a
			// swapBlock call here would cost more than the swap.
			return func(dst, src []byte, n int) {
				for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
					v := binary.LittleEndian.Uint64(src[so : so+8])
					binary.LittleEndian.PutUint64(dst[do:do+8], bits.ReverseBytes64(v))
				}
			}, nil
		}
		// One element per word: the SIMD shuffle handles whole 16-byte
		// blocks, ReverseBytes64 the tail.  The exact-length subslices let
		// the compiler drop the per-word bounds checks in the scalar loop.
		return func(dst, src []byte, n int) {
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				db, sb := dst[do:do+8*words], src[so:so+8*words]
				i := swapBlock(8, db, sb)
				for ; i+8 <= len(sb); i += 8 {
					v := binary.LittleEndian.Uint64(sb[i : i+8])
					binary.LittleEndian.PutUint64(db[i:i+8], bits.ReverseBytes64(v))
				}
			}
		}, nil
	case 4:
		// Two elements per word: ReverseBytes64 swaps every byte AND the
		// element order; rotating by 32 puts the elements back, leaving
		// each one byte-reversed in place.
		simd := 8*words >= 16 // below one block swapBlock always declines
		return func(dst, src []byte, n int) {
			ln := 8*words + 4*rem
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				db, sb := dst[do:do+ln], src[so:so+ln]
				i := 0
				if simd {
					i = swapBlock(4, db[:8*words], sb[:8*words])
				}
				for ; i+8 <= 8*words; i += 8 {
					v := bits.ReverseBytes64(binary.LittleEndian.Uint64(sb[i : i+8]))
					binary.LittleEndian.PutUint64(db[i:i+8], bits.RotateLeft64(v, 32))
				}
				if rem != 0 {
					v := binary.LittleEndian.Uint32(sb[i : i+4])
					binary.LittleEndian.PutUint32(db[i:i+4], bits.ReverseBytes32(v))
				}
			}
		}, nil
	case 2:
		// Four elements per word: a SWAR mask-and-shift reverses the two
		// bytes within each 16-bit lane without disturbing lane order.
		simd := 8*words >= 16
		return func(dst, src []byte, n int) {
			ln := 8*words + 2*rem
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				db, sb := dst[do:do+ln], src[so:so+ln]
				i := 0
				if simd {
					i = swapBlock(2, db[:8*words], sb[:8*words])
				}
				for ; i+8 <= 8*words; i += 8 {
					v := binary.LittleEndian.Uint64(sb[i : i+8])
					v = (v&swap2Mask)<<8 | (v>>8)&swap2Mask
					binary.LittleEndian.PutUint64(db[i:i+8], v)
				}
				for ; i+2 <= len(sb); i += 2 {
					v := binary.LittleEndian.Uint16(sb[i : i+2])
					binary.LittleEndian.PutUint16(db[i:i+2], bits.ReverseBytes16(v))
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: wide swap width %d", op.In.Width)
}
