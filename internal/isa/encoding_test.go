package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: NOP},
		{Op: HALT},
		{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: ADDI, Rd: 31, Rs1: 30, Imm: 255},
		{Op: ADDI, Rd: 1, Rs1: 0, Imm: -255},
		{Op: ADDI, Rd: 1, Rs1: 0, Imm: 1 << 20}, // extended
		{Op: LUI, Rd: 5, Imm: -1 << 19},         // extended negative
		{Op: LW, Rd: 9, Rs1: 2, Imm: 64},
		{Op: LDS, Rd: 11},
		{Op: BAR},
		{Op: BNE, Rs1: 8, Rs2: 0, Imm: 12},
		{Op: CSRR, Rd: 4, Imm: CSRThreadID},
		{Op: FSQRT, Rd: 2, Rs1: 3},
	}
	for _, in := range cases {
		b := Encode(nil, in)
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if n != len(b) {
			t.Errorf("%v: consumed %d of %d bytes", in, n, len(b))
		}
		if got != in {
			t.Errorf("round trip: %+v -> %+v", in, got)
		}
		if EncodedSize(in) != len(b) {
			t.Errorf("%v: EncodedSize %d, encoded %d", in, EncodedSize(in), len(b))
		}
	}
}

func TestEncodeShortImmediateBoundary(t *testing.T) {
	// Short immediates span (extMarker, immMax]; the marker itself and
	// anything outside must take the extended form.
	for _, imm := range []int32{immMax, immMax + 1, int32(extMarker), int32(extMarker) + 1, 0} {
		in := Inst{Op: ADDI, Rd: 1, Imm: imm}
		b := Encode(nil, in)
		got, _, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Imm != imm {
			t.Errorf("imm %d decoded as %d", imm, got.Imm)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := Decode([]byte{0xFF, 0, 0, 0xFF}); err == nil {
		t.Error("invalid opcode accepted")
	}
	// Extension word promised but missing.
	b := Encode(nil, Inst{Op: ADDI, Imm: 1 << 20})
	if _, _, err := Decode(b[:4]); err == nil {
		t.Error("truncated extension accepted")
	}
}

func TestEncodeInvalidOpcodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Encode(nil, Inst{Op: Op(250)})
}

func TestProgramRoundTrip(t *testing.T) {
	p := &Program{Name: "rt", Insts: []Inst{
		{Op: ADDI, Rd: 1, Imm: 100000},
		{Op: ADD, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: BNE, Rs1: 2, Rs2: 0, Imm: 0},
		{Op: HALT},
	}}
	enc := EncodeProgram(p)
	if len(enc) != EncodedBytes(p) {
		t.Errorf("EncodedBytes %d, actual %d", EncodedBytes(p), len(enc))
	}
	back, err := DecodeProgram("rt", enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Insts) != len(p.Insts) {
		t.Fatalf("decoded %d insts", len(back.Insts))
	}
	for i := range p.Insts {
		if back.Insts[i] != p.Insts[i] {
			t.Errorf("inst %d: %+v vs %+v", i, back.Insts[i], p.Insts[i])
		}
	}
}

// TestDecodeProgramRejectsStrayTargets: a J, JAL or conditional branch
// must target an instruction or the program's end; the error names the pc
// and the target. "0000" is one bgeu r0, r24, 48.
func TestDecodeProgramRejectsStrayTargets(t *testing.T) {
	if _, err := DecodeProgram("p", []byte("0000")); err == nil ||
		!strings.Contains(err.Error(), "pc 0") || !strings.Contains(err.Error(), "48") {
		t.Errorf("bgeu to 48 in a 1-instruction program: err %v, want one naming pc 0 and target 48", err)
	}
	enc := func(ins ...Inst) []byte {
		var b []byte
		for _, in := range ins {
			b = Encode(b, in)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		ins  []Inst
		ok   bool
	}{
		{"branch to the end", []Inst{{Op: BEQ, Imm: 2}, {Op: HALT}}, true},
		{"jump to the start", []Inst{{Op: NOP}, {Op: J, Imm: 0}}, true},
		{"branch past the end", []Inst{{Op: BNE, Imm: 3}, {Op: HALT}}, false},
		{"negative target", []Inst{{Op: NOP}, {Op: J, Imm: -1}}, false},
		{"call past the end", []Inst{{Op: JAL, Rd: 27, Imm: 1000}, {Op: HALT}}, false},
		{"JR is register-indirect", []Inst{{Op: JR, Rs1: 27, Imm: 1000}}, true},
	} {
		if _, err := DecodeProgram("p", enc(tc.ins...)); (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// Property: any well-formed instruction round-trips.
func TestPropertyEncodeDecode(t *testing.T) {
	f := func(opRaw uint8, rd, rs1, rs2 uint8, imm int32) bool {
		op := Op(opRaw % uint8(numOps))
		if !op.Valid() {
			return true
		}
		in := Inst{Op: op, Rd: rd % 32, Rs1: rs1 % 32, Rs2: rs2 % 32, Imm: imm}
		got, n, err := Decode(Encode(nil, in))
		return err == nil && n == EncodedSize(in) && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
