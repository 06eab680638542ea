package dcg

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

// fillBatch builds n contiguous wire records with distinct deterministic
// contents.
func fillBatch(wf *wire.Format, n int) []byte {
	src := make([]byte, n*wf.Size)
	for i := 0; i < n; i++ {
		r := native.New(wf)
		native.FillDeterministic(r, int64(i+1))
		copy(src[i*wf.Size:], r.Buf)
	}
	return src
}

// TestConvertBatchMatchesPerRecord is the core contract: a batch convert
// must be byte-identical to n independent single-record converts,
// across swap-heavy, move-only, resizing and no-op pairs.
func TestConvertBatchMatchesPerRecord(t *testing.T) {
	pairs := []struct {
		name     string
		from, to abi.Arch
	}{
		{"swap/sparc-to-x86", abi.SparcV8, abi.X86},
		{"move-only/sparc-to-mips", abi.SparcV8, abi.MIPSo32},
		{"resize/sparcv9-64-to-x86", abi.SparcV9x64, abi.X86},
		{"swap+widen/x86-to-mips-n64", abi.X86, abi.MIPSn64},
		{"noop/x86-to-x86", abi.X86, abi.X86},
	}
	for _, pr := range pairs {
		t.Run(pr.name, func(t *testing.T) {
			bp := compileFor(t, &pr.from, &pr.to)
			wf, nf := bp.Plan().Wire, bp.Plan().Native
			for _, n := range []int{1, 2, 3, 17} {
				src := fillBatch(wf, n)
				want := make([]byte, n*nf.Size)
				for i := 0; i < n; i++ {
					if err := bp.Convert(want[i*nf.Size:(i+1)*nf.Size], src[i*wf.Size:(i+1)*wf.Size]); err != nil {
						t.Fatal(err)
					}
				}
				got := make([]byte, n*nf.Size)
				cnt, err := bp.ConvertBatch(got, src)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if cnt != n {
					t.Fatalf("n=%d: ConvertBatch returned %d", n, cnt)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d: batch output differs from single-record output\ncode:\n%s",
						n, DisassembleBatch(bp.Ops()))
				}
			}
		})
	}
}

// TestConvertBatchRejectsPartialInput pins the stride contract: a source
// that is empty or not a whole number of records is an error, matching
// the transport's batch-frame validation.
func TestConvertBatchRejectsPartialInput(t *testing.T) {
	bp := compileFor(t, &abi.SparcV8, &abi.X86)
	wf, nf := bp.Plan().Wire, bp.Plan().Native
	dst := make([]byte, 4*nf.Size)
	for _, bad := range []int{0, 1, wf.Size - 1, wf.Size + 1, 3*wf.Size - 7} {
		if _, err := bp.ConvertBatch(dst, make([]byte, bad)); err == nil {
			t.Errorf("source of %d bytes (stride %d): want error, got nil", bad, wf.Size)
		}
	}
	// A destination short of n records must be rejected before any kernel
	// touches it.
	if _, err := bp.ConvertBatch(make([]byte, 2*nf.Size-1), fillBatch(wf, 2)); err == nil {
		t.Error("short destination accepted")
	}
}

// TestCompileBatchBulkCopy pins the move-only specialization: a
// layout-identical pair compiles to a single whole-batch copy.
func TestCompileBatchBulkCopy(t *testing.T) {
	bp := compileFor(t, &abi.X86, &abi.X86)
	ops := bp.Ops()
	if len(ops) != 1 || ops[0].Kind != BBulkCopy {
		t.Fatalf("noop pair compiled to %d ops:\n%s", len(ops), DisassembleBatch(ops))
	}
	wf := bp.Plan().Wire
	src := fillBatch(wf, 5)
	dst := make([]byte, len(src))
	if _, err := bp.ConvertBatch(dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("bulk copy did not reproduce the batch")
	}
}

// TestFuseBatchWidens pins the word-fusion shapes: a big-endian sender's
// contiguous double run becomes width-8 words, 4-byte and 2-byte runs
// fuse two and four elements per word with the trailing remainder swapped
// singly.
func TestFuseBatchWidens(t *testing.T) {
	cases := []struct {
		width, count int
		kind         BatchOpKind
		words, rem   int
	}{
		{8, 3, BSwapWide, 3, 0},
		{4, 1, BSwapWide, 0, 1},
		{4, 2, BSwapWide, 1, 0},
		{4, 7, BSwapWide, 3, 1},
		{2, 3, BSwapWide, 0, 3},
		{2, 4, BSwapWide, 1, 0},
		{2, 11, BSwapWide, 2, 3},
	}
	for _, c := range cases {
		in := Instr{Op: ISwap, Width: c.width, Count: c.count}
		op := fuseSwap(in)
		if op.Kind != c.kind || op.Words != c.words || op.Rem != c.rem {
			t.Errorf("swap%d x%d: fused to %v words=%d rem=%d, want %v words=%d rem=%d",
				c.width, c.count, op.Kind, op.Words, op.Rem, c.kind, c.words, c.rem)
		}
	}
	// Width-1 swaps degenerate to moves.
	if op := fuseSwap(Instr{Op: ISwap, Width: 1, Count: 5}); op.Kind != BMove || op.In.Len != 5 {
		t.Errorf("swap1 x5 fused to %v len=%d, want move len=5", op.Kind, op.In.Len)
	}
}

// TestBatchStats sanity-checks the shape counters the flight journal
// reports: a swap-heavy pair must fuse words, and nested records must
// fall back to per-record steps.
func TestBatchStats(t *testing.T) {
	bp := compileFor(t, &abi.SparcV8, &abi.X86)
	runs, words, steps := bp.Stats()
	if runs == 0 || words == 0 {
		t.Errorf("swap pair: runs=%d fusedWords=%d, want both > 0\n%s",
			runs, words, DisassembleBatch(bp.Ops()))
	}
	if steps != 0 {
		t.Errorf("mixed flat schema should need no step fallbacks, got %d:\n%s",
			steps, DisassembleBatch(bp.Ops()))
	}

	wf := wire.MustLayout(particleSchema(250), &abi.SparcV8)
	nf := wire.MustLayout(particleSchema(250), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, steps := nested.Stats(); steps == 0 {
		t.Errorf("nested array-of-structures should use step fallbacks:\n%s",
			DisassembleBatch(nested.Ops()))
	}
	if !strings.Contains(DisassembleBatch(nested.Ops()), "step") {
		t.Error("disassembly of nested batch program lacks a step op")
	}
}

// TestSwapBlockMatchesScalar pins the SIMD shuffle against a scalar
// reference for every width and a range of run lengths, including ones
// below the 16-byte block size (where swapBlock must decline) and ones
// with scalar tails.
func TestSwapBlockMatchesScalar(t *testing.T) {
	for _, width := range []int{2, 4, 8} {
		for _, elems := range []int{1, 2, 3, 7, 8, 11, 16, 33} {
			ln := width * elems
			src := make([]byte, ln)
			for i := range src {
				src[i] = byte(i*37 + width)
			}
			want := make([]byte, ln)
			for e := 0; e < elems; e++ {
				for b := 0; b < width; b++ {
					want[e*width+b] = src[e*width+width-1-b]
				}
			}
			got := make([]byte, ln)
			done := swapBlock(width, got, src)
			if done%16 != 0 || done > ln {
				t.Fatalf("width %d × %d: swapBlock handled %d bytes", width, elems, done)
			}
			for e := done / width; e < elems; e++ { // scalar reference for the tail
				for b := 0; b < width; b++ {
					got[e*width+b] = src[e*width+width-1-b]
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("width %d × %d: shuffle output differs from scalar reference (SIMD covered %d bytes)", width, elems, done)
			}
		}
	}
}

// TestCompileBatchRecordShuffle pins the whole-record shuffle form on
// machines with the SIMD shuffle unit: an all-swap heterogeneous record
// compiles to a single BShuf op whose masks reverse each field's lanes
// and zero the alignment gap, and the paper's 100 B mixed record, whose
// fields shift between sparc-v8 and x86 offsets, gathers every block
// from at most two source windows.  (Output equivalence is covered by
// the property tests and the differential fuzz target.)
func TestCompileBatchRecordShuffle(t *testing.T) {
	if !shufAvailable() {
		t.Skip("no SIMD shuffle unit on this CPU")
	}
	schema := &wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "values", Type: abi.Double, Count: 11},
		},
	}
	wf := wire.MustLayout(schema, &abi.SparcV8)
	nf := wire.MustLayout(schema, &abi.X86x64)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	ops := bp.Ops()
	if len(ops) != 1 || ops[0].Kind != BShuf {
		t.Fatalf("all-swap record should compile to one shuffle, got:\n%s",
			DisassembleBatch(ops))
	}
	masks := ops[0].Masks
	if len(masks) != nf.Size {
		t.Fatalf("shuffle covers %d of %d record bytes", len(masks), nf.Size)
	}
	// First block: seq is a 4-byte reversal, the alignment gap before
	// the doubles zero lanes, the first double an 8-byte reversal.
	want := []byte{3, 2, 1, 0, 0x80, 0x80, 0x80, 0x80, 15, 14, 13, 12, 11, 10, 9, 8}
	if !bytes.Equal(masks[:16], want) {
		t.Fatalf("first mask block = % x, want % x", masks[:16], want)
	}
	if w := ops[0].Win; w[0] != 0 || w[1] >= 0 {
		t.Fatalf("first block windows = %v, want one window at offset 0", w[:2])
	}

	plan, err = convert.NewPlan(wire.MustLayout(mixedSchemaN(7), &abi.SparcV8),
		wire.MustLayout(mixedSchemaN(7), &abi.X86)) // 104-byte wire, 96-byte native
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ops := mixed.Ops(); len(ops) != 1 || ops[0].Kind != BShuf || len(ops[0].Masks) != mixed.Plan().Native.Size {
		t.Fatalf("shifted mixed record should compile to one whole-record shuffle, got:\n%s",
			DisassembleBatch(ops))
	}
}

// TestGatherProgramLimits pins where a shuffle region must end: at a
// block whose bytes span three source windows, and — when dst and src
// alias — at a block that reads a source byte below its own offset,
// which an earlier block's store has already replaced.
func TestGatherProgramLimits(t *testing.T) {
	lanes := make([]int32, 48)
	for i := range lanes {
		lanes[i] = int32(i)
	}
	lanes[16] = 15
	if _, bad := gatherProgram(lanes, 64, false); bad != -1 {
		t.Errorf("two-buffer gather stopped at block %d, want none", bad)
	}
	if _, bad := gatherProgram(lanes, 64, true); bad != 1 {
		t.Errorf("in-place gather stopped at block %d, want 1", bad)
	}
	lanes[33], lanes[34] = 10, 60 // block 2 now needs windows at 10, 32 and 60
	if _, bad := gatherProgram(lanes, 64, false); bad != 2 {
		t.Errorf("three-window block: gather stopped at block %d, want 2", bad)
	}
}

// TestConvertBatchAllocs pins both entry points at zero allocations
// per call (the pbio-level pins cover the full decode paths).
func TestConvertBatchAllocs(t *testing.T) {
	bp := compileFor(t, &abi.SparcV8, &abi.X86)
	wf, nf := bp.Plan().Wire, bp.Plan().Native
	src := fillBatch(wf, 64)
	dst := make([]byte, 64*nf.Size)
	got := testing.AllocsPerRun(100, func() {
		if _, err := bp.ConvertBatch(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("ConvertBatch allocates %.1f per batch, want 0", got)
	}
	got = testing.AllocsPerRun(100, func() {
		if err := bp.Convert(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("Convert allocates %.1f per record, want 0", got)
	}
}
