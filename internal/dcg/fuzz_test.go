package dcg

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/wire"
)

// FuzzConvertBatch is the differential fuzz target for the compiled
// program, with the internal/convert interpreter — the paper's baseline —
// as the oracle.  For a fuzzer-chosen schema, architecture pair, batch
// size and record payload:
//
//   - ConvertBatch over n contiguous records must match the interpreter
//     run record by record on every field byte;
//   - a single Convert (the batch of one) must produce exactly the
//     batch's first record;
//   - a dirty destination must come out byte-identical to a zeroed one,
//     padding included (the program writes every destination byte);
//   - when the plan is in-place safe, converting with dst and src
//     aliasing one buffer must match the interpreter's field bytes.
//
// The fuzzer also drives the stride contract: any source that is not a
// positive whole number of records (a trailing partial record, or empty
// input) must be rejected.
func FuzzConvertBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(3), uint8(0), []byte("seed"))
	f.Add(int64(42), uint8(2), uint8(4), uint8(7), uint8(5), []byte{0xff, 0x00, 0x80, 0x7f})
	f.Add(int64(20260808), uint8(1), uint8(3), uint8(64), uint8(1), []byte{})
	f.Add(int64(7), uint8(3), uint8(3), uint8(0), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, seed int64, fromIdx, toIdx, nRecs, chop uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		schema := wire.RandomSchema(rng, "r", 6, 2)
		wireSchema := schema
		if seed%2 == 0 {
			wireSchema = wire.MutateSchema(rng, schema)
		}
		from := abi.All[int(fromIdx)%len(abi.All)]
		to := abi.All[int(toIdx)%len(abi.All)]
		wf, err := wire.Layout(wireSchema, &from)
		if err != nil {
			t.Skip()
		}
		nf, err := wire.Layout(schema, &to)
		if err != nil {
			t.Skip()
		}
		plan, err := convert.NewPlan(wf, nf)
		if err != nil {
			t.Skip()
		}
		prog, err := Compile(plan)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}

		n := int(nRecs)%96 + 1
		src := make([]byte, n*wf.Size)
		for i := 0; i < len(src); i += len(raw) {
			copy(src[i:], raw)
			if len(raw) == 0 {
				break
			}
		}

		want := make([]byte, n*nf.Size)
		it := convert.NewInterp(plan)
		for i := 0; i < n; i++ {
			if err := it.Convert(want[i*nf.Size:(i+1)*nf.Size], src[i*wf.Size:(i+1)*wf.Size]); err != nil {
				t.Fatalf("record %d: interpreter: %v", i, err)
			}
		}
		got := make([]byte, n*nf.Size)
		cnt, err := prog.ConvertBatch(got, src)
		if err != nil {
			t.Fatalf("batch convert: %v", err)
		}
		if cnt != n {
			t.Fatalf("ConvertBatch converted %d of %d records", cnt, n)
		}
		for i := 0; i < n; i++ {
			if diff := fieldBytesDiff(nf, got[i*nf.Size:(i+1)*nf.Size], want[i*nf.Size:(i+1)*nf.Size]); diff != "" {
				t.Fatalf("record %d/%d field %s: program and interpreter disagree (%s -> %s)\nplan:\n%s\ncode:\n%s",
					i, n, diff, from.Name, to.Name, plan, DisassembleBatch(prog.Ops()))
			}
		}

		dirty := bytes.Repeat([]byte{0xA5}, n*nf.Size)
		if _, err := prog.ConvertBatch(dirty, src); err != nil {
			t.Fatalf("batch convert into dirty destination: %v", err)
		}
		if !bytes.Equal(dirty, got) {
			t.Fatalf("batch output depends on the destination's prior contents (%s -> %s)\ncode:\n%s",
				from.Name, to.Name, DisassembleBatch(prog.Ops()))
		}

		one := bytes.Repeat([]byte{0x5A}, nf.Size)
		if err := prog.Convert(one, src[:wf.Size]); err != nil {
			t.Fatalf("single convert: %v", err)
		}
		if !bytes.Equal(one, got[:nf.Size]) {
			t.Fatalf("single-record convert differs from the batch's first record (%s -> %s)\ncode:\n%s",
				from.Name, to.Name, DisassembleBatch(prog.Ops()))
		}

		if plan.InPlace {
			shared := make([]byte, max(wf.Size, nf.Size))
			copy(shared, src[:wf.Size])
			if err := prog.Convert(shared[:nf.Size], shared[:wf.Size]); err != nil {
				t.Fatalf("in-place convert: %v", err)
			}
			if diff := fieldBytesDiff(nf, shared[:nf.Size], want[:nf.Size]); diff != "" {
				t.Fatalf("in-place convert and interpreter disagree on field %s (%s -> %s)\nplan:\n%s\ncode:\n%s",
					diff, from.Name, to.Name, plan, DisassembleBatch(prog.Ops()))
			}
		}

		// Trailing partial input: chop 1..Size-1 bytes off the last record
		// and the batch must be rejected, never silently truncated.
		if cut := int(chop) % wf.Size; cut > 0 {
			if _, err := prog.ConvertBatch(got, src[:len(src)-cut]); err == nil {
				t.Fatalf("source with %d-byte trailing partial record accepted (stride %d)", wf.Size-cut, wf.Size)
			}
		}
		if _, err := prog.ConvertBatch(got, nil); err == nil {
			t.Fatal("empty source accepted")
		}
	})
}
