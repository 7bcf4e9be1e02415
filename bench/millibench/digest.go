package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// digest accumulates the simulated outputs of a run into one SHA-256, so
// two builds can be checked for producing identical simulations: a change
// that only speeds up the host must leave it unchanged. Fields are written
// length-prefixed in a fixed order, so no two different inputs collide by
// concatenation.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

// sim adds one simulation: architecture, benchmark, dataset seed, simulated
// compute cycles and picoseconds, instructions, and the reduced output.
func (d *digest) sim(arch, bench string, seed, cycles, timePS, insts uint64, out []uint32) {
	d.str(arch)
	d.str(bench)
	d.u64(seed)
	d.u64(cycles)
	d.u64(timePS)
	d.u64(insts)
	d.u64(uint64(len(out)))
	for _, w := range out {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], w)
		d.h.Write(b[:])
	}
}

// body adds one served result: the job's key and its result body.
func (d *digest) body(key string, body []byte) {
	d.str(key)
	d.u64(uint64(len(body)))
	d.h.Write(body)
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }
