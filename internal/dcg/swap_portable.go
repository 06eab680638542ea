//go:build !amd64

package dcg

// swapBlock has no SIMD implementation off amd64; the scalar word loops
// in the batch kernels handle the whole run.
func swapBlock(width int, db, sb []byte) int { return 0 }

// shufAvailable reports that whole-record shuffle programs cannot run
// here: without the SIMD shuffle unit the word-wide kernels are faster
// than emulating a byte permutation, so BShuf ops are never built.
func shufAvailable() bool { return false }

// gatherBlocks is unreachable off amd64 — buildRecordShuffle is gated
// on shufAvailable.
func gatherBlocks(dst, src, masks, masksB *byte, win *int32, nblk, n, ds, ss int) {
	panic("dcg: shuffle program without SIMD support")
}
