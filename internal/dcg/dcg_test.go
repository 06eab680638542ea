package dcg

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

func mixedSchema() *wire.Schema { return mixedSchemaN(8) }

// mixedSchemaN is the paper's mixed record with n trailing doubles:
// n=7 is its 100 B size and n=1245 its 10 KB size on x86.
func mixedSchemaN(n int) *wire.Schema {
	return &wire.Schema{
		Name: "mixed",
		Fields: []wire.FieldSpec{
			{Name: "node", Type: abi.Int, Count: 1},
			{Name: "timestamp", Type: abi.Double, Count: 1},
			{Name: "iter", Type: abi.Long, Count: 1},
			{Name: "tag", Type: abi.Char, Count: 16},
			{Name: "residual", Type: abi.Float, Count: 1},
			{Name: "flags", Type: abi.UInt, Count: 1},
			{Name: "values", Type: abi.Double, Count: n},
		},
	}
}

func compileFor(t *testing.T, from, to *abi.Arch) *Program {
	t.Helper()
	p, err := convert.NewPlan(wire.MustLayout(mixedSchema(), from), wire.MustLayout(mixedSchema(), to))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// dirtyConvert converts src into a 0xA5-filled destination.  A program
// writes every destination byte, so the result must equal conversion
// into a zeroed one — the contract DecodeInto's record reuse relies on.
func dirtyConvert(t *testing.T, prog *Program, src []byte) []byte {
	t.Helper()
	dst := bytes.Repeat([]byte{0xA5}, prog.Plan().Native.Size)
	if err := prog.Convert(dst, src); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestCompiledMatchesInterpreted is the central equivalence property: for
// every architecture pair, the generated program and the interpreter must
// produce byte-identical output, into a dirty destination as into a
// zeroed one.
func TestCompiledMatchesInterpreted(t *testing.T) {
	schemas := []*wire.Schema{
		mixedSchema(),
		mixedSchemaN(7),
		mixedSchemaN(1245),
		{Name: "ints", Fields: []wire.FieldSpec{
			{Name: "a", Type: abi.Short, Count: 5},
			{Name: "b", Type: abi.Long, Count: 3},
			{Name: "c", Type: abi.ULong, Count: 2},
			{Name: "d", Type: abi.LongLong, Count: 1},
			{Name: "e", Type: abi.UShort, Count: 7},
		}},
		{Name: "floats", Fields: []wire.FieldSpec{
			{Name: "f", Type: abi.Float, Count: 9},
			{Name: "g", Type: abi.Double, Count: 5},
		}},
		{Name: "chars", Fields: []wire.FieldSpec{
			{Name: "s1", Type: abi.Char, Count: 3},
			{Name: "x", Type: abi.Int, Count: 1},
			{Name: "s2", Type: abi.Char, Count: 31},
		}},
	}
	for _, s := range schemas {
		for _, from := range abi.All {
			for _, to := range abi.All {
				from, to := from, to
				wf := wire.MustLayout(s, &from)
				nf := wire.MustLayout(s, &to)
				plan, err := convert.NewPlan(wf, nf)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := Compile(plan)
				if err != nil {
					t.Fatalf("%s->%s: Compile: %v", from.Name, to.Name, err)
				}
				src := native.New(wf)
				native.FillDeterministic(src, int64(len(s.Fields))*31)
				want := native.New(nf)
				if err := convert.NewInterp(plan).Convert(want.Buf, src.Buf); err != nil {
					t.Fatal(err)
				}
				got := native.New(nf)
				if err := prog.Convert(got.Buf, src.Buf); err != nil {
					t.Fatal(err)
				}
				if string(got.Buf) != string(want.Buf) {
					t.Errorf("%s: %s->%s: compiled and interpreted outputs differ\nplan:\n%s\ncode:\n%s",
						s.Name, from.Name, to.Name, plan, DisassembleBatch(prog.Ops()))
				}
				if !bytes.Equal(dirtyConvert(t, prog, src.Buf), got.Buf) {
					t.Errorf("%s: %s->%s: output depends on the destination's prior contents\ncode:\n%s",
						s.Name, from.Name, to.Name, DisassembleBatch(prog.Ops()))
				}
			}
		}
	}
}

func TestCompiledPreservesValues(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.X86)
	src := native.New(prog.Plan().Wire)
	native.FillDeterministic(src, 1234)
	dst := native.New(prog.Plan().Native)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if diff := native.SemanticEqual(src, dst); diff != "" {
		t.Errorf("conversion lost data: %s", diff)
	}
}

func TestNoOpProgram(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.SparcV8)
	if ops := prog.Ops(); len(ops) != 1 || ops[0].Kind != BBulkCopy {
		t.Errorf("no-op program is not one bulk copy:\n%s", DisassembleBatch(ops))
	}
	src := native.New(prog.Plan().Wire)
	native.FillDeterministic(src, 7)
	dst := native.New(prog.Plan().Native)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if string(dst.Buf) != string(src.Buf) {
		t.Error("no-op copy differs")
	}
	// Aliased no-op conversion must not touch the buffer.
	before := string(src.Buf)
	if err := prog.Convert(src.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if string(src.Buf) != before {
		t.Error("aliased no-op modified buffer")
	}
}

func TestOptimizeCoalescesCopies(t *testing.T) {
	// Homogeneous layouts shifted by a constant offset (the paper's
	// Figure 7 mismatch case) must fuse into very few block moves —
	// ideally one.
	base := mixedSchema()
	ext := &wire.Schema{Name: base.Name, Fields: append(
		[]wire.FieldSpec{{Name: "hdr", Type: abi.Double, Count: 1}}, base.Fields...)}
	wf := wire.MustLayout(ext, &abi.X86)
	nf := wire.MustLayout(base, &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	nMov := 0
	for _, op := range prog.Ops() {
		if op.Kind != BMove {
			t.Fatalf("unexpected non-move op: %v", op)
		}
		nMov++
	}
	if nMov > 2 {
		t.Errorf("shifted-layout conversion uses %d moves, want <= 2:\n%s",
			nMov, DisassembleBatch(prog.Ops()))
	}
	// The fused program must still be correct.
	src := native.New(wf)
	native.FillDeterministic(src, 3)
	dst := native.New(nf)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if diff := native.SemanticEqual(dst, src); diff != "" {
		t.Errorf("fused conversion corrupted data: %s", diff)
	}
}

func TestOptimizeCoalescesSwaps(t *testing.T) {
	// sparc -> x86 on a pure double record: the byte-swap of all
	// adjacent doubles (one per field op) must fuse into one swap8.
	s := &wire.Schema{Name: "d", Fields: []wire.FieldSpec{
		{Name: "a", Type: abi.Double, Count: 4},
		{Name: "b", Type: abi.Double, Count: 4},
		{Name: "c", Type: abi.Double, Count: 4},
	}}
	plan, err := convert.NewPlan(wire.MustLayout(s, &abi.SparcV8), wire.MustLayout(s, &abi.X86))
	if err != nil {
		t.Fatal(err)
	}
	code, err := Emit(plan)
	if err != nil {
		t.Fatal(err)
	}
	code = Optimize(code)
	if len(code) != 1 || code[0].Op != ISwap || code[0].Count != 12 {
		t.Errorf("want single swap8 x12, got:\n%s", Disassemble(code))
	}
}

func TestOptimizeDoesNotFuseAcrossUnequalGaps(t *testing.T) {
	code := []Instr{
		{Op: IMovBlk, Dst: 0, Src: 0, Len: 4},
		{Op: IMovBlk, Dst: 4, Src: 8, Len: 4}, // src gap 4, dst gap 0
	}
	out := Optimize(code)
	if len(out) != 2 {
		t.Errorf("fused moves with unequal gaps:\n%s", Disassemble(out))
	}
}

func TestOptimizeDoesNotFuseAcrossHugeGaps(t *testing.T) {
	code := []Instr{
		{Op: IMovBlk, Dst: 0, Src: 0, Len: 4},
		{Op: IMovBlk, Dst: 4 + 100, Src: 4 + 100, Len: 4},
	}
	out := Optimize(code)
	if len(out) != 2 {
		t.Error("fused moves across a 100-byte gap")
	}
}

func TestOptimizeMergesZeros(t *testing.T) {
	code := []Instr{
		{Op: IZero, Dst: 0, Len: 4},
		{Op: IZero, Dst: 4, Len: 8},
	}
	out := Optimize(code)
	if len(out) != 1 || out[0].Len != 12 {
		t.Errorf("zero merge failed:\n%s", Disassemble(out))
	}
}

func TestProgramInPlace(t *testing.T) {
	// In-place execution for an in-place-safe plan.
	base := mixedSchema()
	ext := &wire.Schema{Name: base.Name, Fields: append(
		[]wire.FieldSpec{{Name: "hdr", Type: abi.Int, Count: 4}}, base.Fields...)}
	wf := wire.MustLayout(ext, &abi.X86)
	nf := wire.MustLayout(base, &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.InPlace {
		t.Fatal("expected in-place-safe plan")
	}
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	src := native.New(wf)
	native.FillDeterministic(src, 55)
	ref := src.Clone()
	if err := prog.Convert(src.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	got, _ := native.View(nf, src.Buf)
	if diff := native.SemanticEqual(got, ref); diff != "" {
		t.Errorf("in-place compiled conversion corrupted data: %s", diff)
	}
}

func TestProgramBufferChecks(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.X86)
	wf, nf := prog.Plan().Wire, prog.Plan().Native
	if err := prog.Convert(make([]byte, nf.Size), make([]byte, wf.Size-1)); err == nil {
		t.Error("short source accepted")
	}
	if err := prog.Convert(make([]byte, nf.Size-1), make([]byte, wf.Size)); err == nil {
		t.Error("short destination accepted")
	}
}

func TestCache(t *testing.T) {
	c := NewCache()
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	nf := wire.MustLayout(mixedSchema(), &abi.X86)
	p1, err := c.Get(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache did not reuse program")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	// Different target layout compiles a distinct program.
	nf2 := wire.MustLayout(mixedSchema(), &abi.SparcV9x64)
	p3, err := c.Get(wf, nf2)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 || c.Len() != 2 {
		t.Error("cache conflated distinct layout pairs")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	nf := wire.MustLayout(mixedSchema(), &abi.X86)
	var wg sync.WaitGroup
	progs := make([]*Program, 16)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(wf, nf)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(progs); i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent Get returned distinct programs")
		}
	}
}

func TestDisassembleAndStrings(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.X86)
	asm := DisassembleBatch(prog.Ops())
	if !strings.Contains(asm, "swap") && !strings.Contains(asm, "shuf") {
		t.Errorf("heterogeneous program has no swaps:\n%s", asm)
	}
	if code, _ := Emit(prog.Plan()); !strings.Contains(Disassemble(code), "swap") {
		t.Errorf("heterogeneous instruction stream has no swaps:\n%s", Disassemble(code))
	}
	for _, in := range []Instr{
		{Op: IMovBlk, Len: 4}, {Op: ISwap, Width: 8, Count: 2},
		{Op: ICvtInt, SrcW: 4, DstW: 8, Signed: true}, {Op: ICvtFloat, SrcW: 4, DstW: 8},
		{Op: IZero, Len: 16}, {Op: OpCode(42)},
	} {
		if in.String() == "" {
			t.Errorf("empty String for %v", in.Op)
		}
	}
	if IMovBlk.String() != "movblk" || OpCode(42).String() == "" {
		t.Error("OpCode.String broken")
	}
}

func TestLowerRejectsBadInstr(t *testing.T) {
	if _, err := lower(Instr{Op: OpCode(42)}); err == nil {
		t.Error("unknown opcode lowered")
	}
	if _, err := lower(Instr{Op: ISwap, Width: 4, Count: 2}); err == nil {
		t.Error("swap lowered as a per-record step")
	}
	if _, err := lowerKernel(fuseSwap(Instr{Op: ISwap, Width: 3, Count: 2}), 8, 8); err == nil {
		t.Error("swap width 3 lowered")
	}
	if _, err := lower(Instr{Op: ICvtFloat, SrcW: 4, DstW: 4}); err == nil {
		t.Error("float convert 4->4 lowered")
	}
	if _, err := lowerKernel(BatchOp{Kind: BatchOpKind(42)}, 8, 8); err == nil {
		t.Error("unknown run op lowered")
	}
}
