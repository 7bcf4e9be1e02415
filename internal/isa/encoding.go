package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary instruction encoding. Each instruction occupies InstBytes (4)
// bytes, which is what the I-cache models and the paper's "code broadcast
// once at launch, under 4 KB" assumption charge. The fixed 32-bit format
// is:
//
//	[31:24] opcode
//	[23:19] rd
//	[18:14] rs1
//	[13:9]  rs2
//	[8:0]   short immediate (signed 9-bit)
//
// Immediates that do not fit 9 bits are encoded as an extended pair: the
// instruction word carries the extMarker immediate and is followed by one
// full 32-bit immediate word (8-byte instruction). This keeps the common
// case at 4 bytes — kernels are dominated by register ops and small
// offsets — while still round-tripping every representable instruction.
// Labels (Sym) are presentation-only and are not preserved by encoding.
const (
	immBits   = 9
	immMax    = 1<<(immBits-1) - 1
	immMin    = -(1 << (immBits - 1))
	extMarker = immMin // reserved short-imm value flagging an extension word
)

// EncodedSize returns the encoded byte size of in (4 or 8).
func EncodedSize(in Inst) int {
	if fitsShort(in.Imm) {
		return InstBytes
	}
	return 2 * InstBytes
}

func fitsShort(imm int32) bool { return imm > extMarker && imm <= immMax }

// Encode appends the binary encoding of in to dst and returns the extended
// slice.
func Encode(dst []byte, in Inst) []byte {
	if !in.Op.Valid() {
		panic(fmt.Sprintf("isa: encoding invalid opcode %d", uint8(in.Op)))
	}
	word := uint32(in.Op)<<24 | uint32(in.Rd&31)<<19 | uint32(in.Rs1&31)<<14 | uint32(in.Rs2&31)<<9
	if fitsShort(in.Imm) {
		word |= uint32(in.Imm) & (1<<immBits - 1)
		return binary.LittleEndian.AppendUint32(dst, word)
	}
	m := int32(extMarker)
	word |= uint32(m) & (1<<immBits - 1)
	dst = binary.LittleEndian.AppendUint32(dst, word)
	return binary.LittleEndian.AppendUint32(dst, uint32(in.Imm))
}

// Decode reads one instruction from b, returning it and the number of bytes
// consumed.
func Decode(b []byte) (Inst, int, error) {
	if len(b) < InstBytes {
		return Inst{}, 0, fmt.Errorf("isa: truncated instruction (%d bytes)", len(b))
	}
	word := binary.LittleEndian.Uint32(b)
	in := Inst{
		Op:  Op(word >> 24),
		Rd:  uint8(word >> 19 & 31),
		Rs1: uint8(word >> 14 & 31),
		Rs2: uint8(word >> 9 & 31),
	}
	if !in.Op.Valid() {
		return Inst{}, 0, fmt.Errorf("isa: invalid opcode %d", word>>24)
	}
	raw := word & (1<<immBits - 1)
	// Sign-extend the short immediate.
	imm := int32(raw<<(32-immBits)) >> (32 - immBits)
	if imm != extMarker {
		in.Imm = imm
		return in, InstBytes, nil
	}
	if len(b) < 2*InstBytes {
		return Inst{}, 0, fmt.Errorf("isa: truncated extended immediate")
	}
	in.Imm = int32(binary.LittleEndian.Uint32(b[InstBytes:]))
	return in, 2 * InstBytes, nil
}

// EncodeProgram serializes a whole program (without labels).
func EncodeProgram(p *Program) []byte {
	var out []byte
	for _, in := range p.Insts {
		out = append(out, Encode(nil, in)...)
	}
	return out
}

// DecodeProgram parses a serialized program. It rejects a J, JAL or
// conditional branch whose target lies outside the program: a target may be
// any instruction or the program's end (the exit), as the assembler allows.
func DecodeProgram(name string, b []byte) (*Program, error) {
	p := &Program{Name: name, Labels: map[string]int{}}
	for len(b) > 0 {
		in, n, err := Decode(b)
		if err != nil {
			return nil, err
		}
		p.Insts = append(p.Insts, in)
		b = b[n:]
	}
	for pc, in := range p.Insts {
		if (IsCondBranch(in.Op) || in.Op == J || in.Op == JAL) && (in.Imm < 0 || int(in.Imm) > len(p.Insts)) {
			return nil, fmt.Errorf("isa: %s: pc %d: %s branches to %d, outside the %d-instruction program",
				name, pc, in.Op, in.Imm, len(p.Insts))
		}
	}
	return p, nil
}

// EncodedBytes returns the exact encoded code footprint of p, the number
// the paper's 4 KB code-broadcast budget constrains.
func EncodedBytes(p *Program) int {
	n := 0
	for _, in := range p.Insts {
		n += EncodedSize(in)
	}
	return n
}
