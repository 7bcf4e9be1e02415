package asm

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// FuzzDecodeProgram feeds arbitrary bytes to the binary program decoder
// (milliasm -d): isa.DecodeProgram either returns an error, or a program
// that disassembles and builds a CFG, post-dominators and reconvergence
// points without a panic, and that re-encodes to bytes decoding to the same
// instructions. The seed corpus in testdata/fuzz holds the eight BMLA
// kernels' encodings and "0000", one bgeu branching past the program, which
// once panicked in BuildCFG.
func FuzzDecodeProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := isa.DecodeProgram("fuzz", b)
		if err != nil {
			return
		}
		_ = p.Disassemble()
		PostDominators(BuildCFG(p))
		Reconvergence(p)
		q, err := isa.DecodeProgram("fuzz", isa.EncodeProgram(p))
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		if !reflect.DeepEqual(q.Insts, p.Insts) {
			t.Fatalf("re-encoded program decodes to\n%s\nnot\n%s", q.Disassemble(), p.Disassemble())
		}
	})
}
