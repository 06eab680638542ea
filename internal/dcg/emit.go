package dcg

import (
	"fmt"
	"slices"

	"repro/internal/abi"
	"repro/internal/convert"
)

// Emit lowers a conversion plan to a virtual instruction stream.  The
// stream is unoptimized; Optimize coalesces it.
func Emit(p *convert.Plan) ([]Instr, error) {
	if p.NoOp {
		return nil, nil
	}
	code := make([]Instr, 0, len(p.Ops)+2)
	for i := range p.Ops {
		o := &p.Ops[i]
		srcBig := o.SrcOrder == abi.BigEndian
		dstBig := o.DstOrder == abi.BigEndian
		switch o.Kind {
		case convert.OpCopy:
			if n := o.SrcSize * o.Count; n > 0 {
				code = append(code, Instr{Op: IMovBlk, Dst: o.DstOff, Src: o.SrcOff, Len: n})
			}
		case convert.OpSwap:
			code = append(code, Instr{
				Op: ISwap, Dst: o.DstOff, Src: o.SrcOff,
				Count: o.Count, Width: o.SrcSize,
			})
		case convert.OpIntCvt:
			code = append(code, Instr{
				Op: ICvtInt, Dst: o.DstOff, Src: o.SrcOff, Count: o.Count,
				SrcW: o.SrcSize, DstW: o.DstSize, Signed: o.Signed,
				SrcBig: srcBig, DstBig: dstBig,
			})
		case convert.OpFloatCvt:
			code = append(code, Instr{
				Op: ICvtFloat, Dst: o.DstOff, Src: o.SrcOff, Count: o.Count,
				SrcW: o.SrcSize, DstW: o.DstSize,
				SrcBig: srcBig, DstBig: dstBig,
			})
		case convert.OpStruct:
			sub, err := Emit(o.Sub)
			if err != nil {
				return nil, err
			}
			sub = zeroFill(Optimize(sub), o.DstSize)
			if o.Count <= inlineStructLimit {
				// Inline small structure fields: emit the subroutine
				// body at absolute offsets per element, so the peephole
				// pass can fuse across element and field boundaries —
				// the "runtime binary code optimization" the paper's
				// future-work section anticipates.
				for e := 0; e < o.Count; e++ {
					code = append(code, shiftInstrs(sub,
						o.DstOff+e*o.DstSize, o.SrcOff+e*o.SrcSize)...)
				}
			} else {
				code = append(code, Instr{
					Op: ICall, Dst: o.DstOff, Src: o.SrcOff, Count: o.Count,
					SrcW: o.SrcSize, DstW: o.DstSize,
					Sub: sub,
				})
			}
		case convert.OpZero:
			// Whole-field zero; TailZero carries the length.
		default:
			return nil, fmt.Errorf("dcg: cannot lower op kind %v", o.Kind)
		}
		if o.TailZero > 0 {
			start := o.DstOff + o.DstSize*o.Count
			if o.Kind == convert.OpZero {
				start = o.DstOff
			}
			code = append(code, Instr{Op: IZero, Dst: start, Len: o.TailZero})
		}
	}
	return code, nil
}

// maxGap is the largest hole (alignment padding) the optimizer will copy
// through when fusing adjacent block moves.  Copying a few padding bytes
// is cheaper than issuing another instruction.
const maxGap = 16

// inlineStructLimit is the largest element count for which a nested
// structure field's conversion is inlined at absolute offsets rather than
// compiled as a counted subroutine call.  Inlined bodies participate in
// peephole fusion with their neighbors; larger arrays keep the call loop
// to bound code size.
const inlineStructLimit = 8

// shiftInstrs returns a copy of code with every destination and source
// offset rebased by the given deltas (subroutine bodies are relative to
// their element start).
func shiftInstrs(code []Instr, dstDelta, srcDelta int) []Instr {
	out := make([]Instr, len(code))
	for i, in := range code {
		in.Dst += dstDelta
		if in.Op != IZero { // IZero has no source
			in.Src += srcDelta
		}
		out[i] = in
	}
	return out
}

// zeroFill makes an instruction stream for records of size bytes define
// every destination byte.  It drops the stream's zero-fills and appends
// one zero run per maximal destination range no other instruction
// writes — alignment padding, missing fields and the tails of shortened
// arrays alike — so output never depends on what the destination held.
// The runs go last: they write only bytes no other instruction writes,
// and after every source read, so they are safe when a conversion runs
// in place.  The result reuses code's storage.
func zeroFill(code []Instr, size int) []Instr {
	type span struct{ lo, hi int }
	var buf [32]span
	spans := buf[:0]
	out := code[:0]
	for _, in := range code {
		if in.Op == IZero {
			continue
		}
		out = append(out, in)
		spans = append(spans, span{in.Dst, in.Dst + dstLen(in)})
	}
	slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
	pos := 0
	for _, s := range append(spans, span{size, size}) {
		if s.lo > pos {
			out = append(out, Instr{Op: IZero, Dst: pos, Len: s.lo - pos})
		}
		pos = max(pos, s.hi)
	}
	return out
}

// dstLen returns the destination bytes an instruction writes.
func dstLen(in Instr) int {
	switch in.Op {
	case IMovBlk, IZero:
		return in.Len
	case ISwap:
		return in.Count * in.Width
	}
	return in.Count * in.DstW // converts and calls
}

// fuse lowers one instruction of an optimized per-record stream to its
// run op, choosing the word-fused form for every swap run wide enough
// to fill a 64-bit word:
//
//   - width-8 swaps are one bits.ReverseBytes64 per element already;
//   - width-4 runs process element pairs per 64-bit word (ReverseBytes64
//     plus a half-word rotate to restore element order);
//   - width-2 runs process element quads per 64-bit word (a SWAR
//     mask-and-shift that reverses bytes within each 16-bit lane);
//   - elements that do not fill a last word are swapped singly;
//   - width-1 swaps degenerate to moves, and moves/zeros pass through as
//     per-record runs (the per-record stream already coalesced them);
//   - converts and subroutine calls keep their per-record step (BStep).
//
// Each op then runs over every record of a call before the next op
// starts — n records of a batch, or one.
//
// The input stream must already be optimized: fuse widens elements
// into words, Optimize widens fields into element runs, and the former
// only pays off after the latter.
func fuse(in Instr) BatchOp {
	switch in.Op {
	case IMovBlk:
		return BatchOp{Kind: BMove, In: in}
	case IZero:
		return BatchOp{Kind: BZero, In: in}
	case ISwap:
		return fuseSwap(in)
	}
	return BatchOp{Kind: BStep, In: in}
}

// fuseSwap picks the widest word shape a swap run supports; a run too
// short to fill one word is all tail.
func fuseSwap(in Instr) BatchOp {
	if in.Width == 1 {
		// Width-1 swap is a copy.
		return BatchOp{Kind: BMove, In: Instr{Op: IMovBlk, Dst: in.Dst, Src: in.Src, Len: in.Count}}
	}
	perWord := 1 // widths 2/4/8 fit 4/2/1 elements per word; others are rejected by lowerSwapWide
	if in.Width > 0 && in.Width < 8 {
		perWord = 8 / in.Width
	}
	return BatchOp{Kind: BSwapWide, In: in, Words: in.Count / perWord, Rem: in.Count % perWord}
}

// Optimize applies peephole optimizations to an instruction stream and
// returns the (possibly shorter) result.  This plays the role of the
// paper's "runtime binary code optimization methods" (§5):
//
//   - adjacent block moves whose source and destination advance in step
//     are fused into one move, copying through small alignment gaps;
//   - adjacent same-width swaps over contiguous elements are fused into
//     one wider-count swap;
//   - adjacent zero-fills are merged.
//
// Fusion through gaps requires the source and destination gaps to be
// equal, so the bytes between fields (padding on both sides) are copied
// verbatim — harmless, since they are padding in both layouts.
//
// Optimize works in place: the result reuses code's storage.
func Optimize(code []Instr) []Instr {
	if len(code) == 0 {
		return code
	}
	out := code[:1]
	for _, in := range code[1:] {
		last := &out[len(out)-1]
		switch {
		case in.Op == IMovBlk && last.Op == IMovBlk:
			srcGap := in.Src - (last.Src + last.Len)
			dstGap := in.Dst - (last.Dst + last.Len)
			if srcGap == dstGap && srcGap >= 0 && srcGap <= maxGap {
				last.Len += srcGap + in.Len
				continue
			}
		case in.Op == ISwap && last.Op == ISwap && in.Width == last.Width:
			if in.Src == last.Src+last.Width*last.Count &&
				in.Dst == last.Dst+last.Width*last.Count {
				last.Count += in.Count
				continue
			}
		case in.Op == IZero && last.Op == IZero:
			gap := in.Dst - (last.Dst + last.Len)
			if gap >= 0 && gap <= maxGap {
				last.Len += gap + in.Len
				continue
			}
		case in.Op == ICvtInt && last.Op == ICvtInt:
			if in.SrcW == last.SrcW && in.DstW == last.DstW &&
				in.Signed == last.Signed && in.SrcBig == last.SrcBig && in.DstBig == last.DstBig &&
				in.Src == last.Src+last.SrcW*last.Count &&
				in.Dst == last.Dst+last.DstW*last.Count {
				last.Count += in.Count
				continue
			}
		case in.Op == ICvtFloat && last.Op == ICvtFloat:
			if in.SrcW == last.SrcW && in.DstW == last.DstW &&
				in.SrcBig == last.SrcBig && in.DstBig == last.DstBig &&
				in.Src == last.Src+last.SrcW*last.Count &&
				in.Dst == last.Dst+last.DstW*last.Count {
				last.Count += in.Count
				continue
			}
		}
		out = append(out, in)
	}
	return out
}
