//go:build amd64

package dcg

// SIMD fast path for the wide swap kernels: a PSHUFB byte shuffle
// reverses every element of a 16-byte block in one instruction, so a
// swap run moves at load/shuffle/store speed instead of one BSWAP per
// element.  SSSE3 is probed once at init; without it (or off amd64)
// swapBlock returns 0 and the scalar word loops do all the work, so the
// kernels are correct everywhere and fast where it matters.

// shufRev8/4/2 are PSHUFB control masks reversing the bytes of each
// 8-, 4- or 2-byte element of a 16-byte block.
var (
	shufRev8 = [16]byte{7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8}
	shufRev4 = [16]byte{3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12}
	shufRev2 = [16]byte{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14}
)

var useSwapAsm = cpuHasSSSE3()

// cpuHasSSSE3 reports whether the CPU supports PSHUFB (CPUID.1:ECX.SSSE3).
func cpuHasSSSE3() bool

// swapPSHUFB byte-reverses elements across n bytes (n > 0, n%16 == 0)
// from src to dst using the given 16-byte shuffle mask.  Each block is
// loaded before it is stored, in ascending order, so dst may alias src
// at the same or a lower address (in-place conversion).
//
//go:noescape
func swapPSHUFB(dst, src *byte, n int, mask *byte)

// shufAvailable reports whether whole-record shuffle programs (BShuf)
// can run on this machine.
func shufAvailable() bool { return useSwapAsm }

// gatherBlocks builds nblk 16-byte destination blocks in each of n
// records (dst stride ds, src stride ss), block k from up to two
// 16-byte source windows: src+win[2k] through mask block k of masks,
// ORed with src+win[2k+1] through mask block k of masksB unless that
// offset is negative.  Each block's loads precede its store and blocks
// go in ascending order, so a single record's dst may alias its src
// when no block reads a source byte an earlier block has overwritten.
// nblk and n must be positive; the caller bounds-checks both buffers.
//
//go:noescape
func gatherBlocks(dst, src, masks, masksB *byte, win *int32, nblk, n, ds, ss int)

// swapBlock converts the longest 16-byte-aligned prefix of a swap run
// with the SIMD shuffle and returns how many bytes it handled; the
// caller finishes the tail with the scalar loop.  len(sb) must be a
// multiple of width and db at least as long.
func swapBlock(width int, db, sb []byte) int {
	blk := len(sb) &^ 15
	if !useSwapAsm || blk == 0 {
		return 0
	}
	var mask *byte
	switch width {
	case 8:
		mask = &shufRev8[0]
	case 4:
		mask = &shufRev4[0]
	case 2:
		mask = &shufRev2[0]
	default:
		return 0
	}
	swapPSHUFB(&db[0], &sb[0], blk, mask)
	return blk
}
