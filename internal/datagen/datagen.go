// Package datagen produces the deterministic synthetic datasets behind the
// eight BMLA benchmarks (Table II). The paper's inputs are proprietary-style
// analytics data (movie ratings, multi-dimensional training points); what
// the architecture actually observes is their value distributions — bin
// skew, the ~70/30 data-dependent branch split the paper cites for BMLA
// branches, cluster geometry — so the generators reproduce exactly those
// knobs from a seeded xorshift PRNG, making every simulation replayable.
//
// The paper's datasets are tens of millions of records per node (Section
// IV-D), far too large to materialize as one slice per thread. Every
// generator is therefore a Source: a resumable record stream that fills
// caller-owned buffers chunk by chunk, byte-identical to a one-shot
// materialization under any chunking. The legacy slice-returning functions
// remain as thin shims over the Sources.
package datagen

import "repro/internal/isa"

// RNG is a xorshift64* generator: tiny, fast, deterministic across
// platforms, and good enough for workload synthesis.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; seed 0 is remapped to a fixed odd constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("datagen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return float64(r.Uint64()>>11)/float64(1<<53) < p
}

// ThreadSeed derives the per-thread RNG seed from a run seed: thread t's
// stream depends only on (seed, t), never on thread count or hardware
// placement. This is the single definition — the harness, the node model,
// and the cluster experiment must all shard datasets through it.
func ThreadSeed(seed uint64, thread int) uint64 {
	return seed*0x10001 + uint64(thread)*0x9E3779B97F4A7C15 + 1
}

// Source is a deterministic streaming record generator. Next fills a
// caller-owned buffer with whole records and returns the number of words
// written (0 at end of stream), so a consumer's memory stays constant in
// the record count. The generator state (PRNG plus any Markov burst state)
// is carried across calls, making every chunking — including one giant
// chunk — byte-identical to the rest.
type Source struct {
	rw   int // words per record
	n    int // total records
	done int // records emitted so far
	rng  RNG // live generator state
	rng0 RNG // state at construction, for Reset
	// start performs the generator's pre-stream draws (burst-state init,
	// centroid synthesis) against the live RNG and returns the per-record
	// emitter; rerun by Reset.
	start func(r *RNG) func(rec []uint32)
	emit  func(rec []uint32)
}

// NewSource builds a Source of n records of recordWords words each. It
// snapshots r's current state (the caller's RNG is not advanced), then runs
// start, which must perform the generator's pre-loop draws in order and
// return the per-record emitter.
func NewSource(recordWords, n int, r *RNG, start func(r *RNG) func(rec []uint32)) *Source {
	if recordWords <= 0 {
		panic("datagen: NewSource with non-positive record words")
	}
	if n < 0 {
		panic("datagen: NewSource with negative record count")
	}
	s := &Source{rw: recordWords, n: n, rng: *r, rng0: *r, start: start}
	s.emit = start(&s.rng)
	return s
}

// RecordWords returns the words per record.
func (s *Source) RecordWords() int { return s.rw }

// Records returns the total record count of the stream.
func (s *Source) Records() int { return s.n }

// Words returns the total stream length in words.
func (s *Source) Words() int { return s.n * s.rw }

// Remaining returns the record count not yet emitted.
func (s *Source) Remaining() int { return s.n - s.done }

// Next fills buf with as many whole records as fit (and remain) and returns
// the number of words written; 0 means end of stream. buf must hold at
// least one record.
func (s *Source) Next(buf []uint32) int {
	if s.done >= s.n {
		return 0
	}
	recs := len(buf) / s.rw
	if recs == 0 {
		panic("datagen: Next buffer smaller than one record")
	}
	if rem := s.n - s.done; recs > rem {
		recs = rem
	}
	for i := 0; i < recs; i++ {
		s.emit(buf[i*s.rw : (i+1)*s.rw])
	}
	s.done += recs
	return recs * s.rw
}

// Reset rewinds the stream to the beginning.
func (s *Source) Reset() {
	s.rng = s.rng0
	s.done = 0
	s.emit = s.start(&s.rng)
}

// Materialize drains the remaining records into one freshly allocated
// slice — the legacy one-shot shape.
func (s *Source) Materialize() []uint32 {
	out := make([]uint32, s.Remaining()*s.rw)
	if len(out) > 0 {
		s.Next(out)
	}
	return out
}

// RatingsSource streams n single-word rating records with values in
// [0, max). Real rating streams are bursty: values cluster in a band for
// long runs (users binge one catalogue, logs arrive partially sorted), so
// the generator is a two-state Markov chain whose stationary split is ~70%
// popular band / 30% cold band with mean dwell times of tens of records.
// The bursts give different Map tasks persistently different
// data-dependent work — the record-processing variability that makes MIMD
// cores stray from each other (Section IV-C).
func RatingsSource(r *RNG, n, max int) *Source {
	return NewSource(1, n, r, func(r *RNG) func(rec []uint32) {
		cold := r.Bernoulli(0.3)
		return func(rec []uint32) {
			if cold {
				rec[0] = uint32(r.Intn(max / 4))
				if r.Bernoulli(1.0 / 28) {
					cold = false
				}
			} else {
				rec[0] = uint32(max/2 + r.Intn(max/2))
				if r.Bernoulli(1.0 / 64) {
					cold = true
				}
			}
		}
	})
}

// Ratings is the one-shot form of RatingsSource.
func Ratings(r *RNG, n, max int) []uint32 {
	return RatingsSource(r, n, max).Materialize()
}

// LabeledPointsSource streams n records of the form [label, x0..x(dims-1)]
// with integer coordinates in [0, k) and a label in [0, classes) chosen
// with probability pClass0 for class 0 — the paper's 70-/30+
// data-dependent branch split when pClass0 = 0.7.
func LabeledPointsSource(r *RNG, n, dims, k, classes int, pClass0 float64) *Source {
	return NewSource(1+dims, n, r, func(r *RNG) func(rec []uint32) {
		return func(rec []uint32) {
			label := uint32(0)
			if !r.Bernoulli(pClass0) {
				label = uint32(1 + r.Intn(classes-1))
			}
			rec[0] = label
			for d := 0; d < dims; d++ {
				rec[1+d] = uint32(r.Intn(k))
			}
		}
	})
}

// LabeledPoints is the one-shot form of LabeledPointsSource.
func LabeledPoints(r *RNG, n, dims, k, classes int, pClass0 float64) []uint32 {
	return LabeledPointsSource(r, n, dims, k, classes, pClass0).Materialize()
}

// FloatPointsSource streams n records of dims float32 coordinates drawn
// from one of centers (cluster centroids) plus uniform noise in [-spread,
// +spread], packed as words. Cluster membership is skewed toward low-index
// clusters (Zipf-ish) so nearest-centroid branches are data-dependent
// rather than uniform.
func FloatPointsSource(r *RNG, n, dims int, centers [][]float32, spread float32) *Source {
	return NewSource(dims, n, r, func(r *RNG) func(rec []uint32) {
		k := len(centers)
		return func(rec []uint32) {
			// Skewed cluster pick: half the mass on cluster 0, half uniform.
			c := 0
			if !r.Bernoulli(0.5) {
				c = r.Intn(k)
			}
			for d := 0; d < dims; d++ {
				v := centers[c][d] + (r.Float32()*2-1)*spread
				rec[d] = isa.Bits(v)
			}
		}
	})
}

// FloatPoints is the one-shot form of FloatPointsSource.
func FloatPoints(r *RNG, n, dims int, centers [][]float32, spread float32) []uint32 {
	return FloatPointsSource(r, n, dims, centers, spread).Materialize()
}

// Centers produces k well-separated centroids on a lattice in [0, 10)^dims.
func Centers(r *RNG, k, dims int) [][]float32 {
	out := make([][]float32, k)
	for c := range out {
		out[c] = make([]float32, dims)
		for d := range out[c] {
			out[c][d] = float32((c*7+d*3)%10) + r.Float32()*0.25
		}
	}
	return out
}

// LabeledFloatPointsSource streams n records [label, x0..x(dims-1)] where
// the coordinates are float32 drawn around per-class means (for GDA). The
// means are synthesized from the stream's own RNG before the first record,
// exactly as the one-shot generator always has.
func LabeledFloatPointsSource(r *RNG, n, dims, classes int, pClass0 float64, spread float32) *Source {
	return NewSource(1+dims, n, r, func(r *RNG) func(rec []uint32) {
		means := Centers(r, classes, dims)
		return func(rec []uint32) {
			label := 0
			if !r.Bernoulli(pClass0) {
				label = 1 + r.Intn(classes-1)
			}
			rec[0] = uint32(label)
			for d := 0; d < dims; d++ {
				v := means[label][d] + (r.Float32()*2-1)*spread
				rec[1+d] = isa.Bits(v)
			}
		}
	})
}

// LabeledFloatPoints is the one-shot form of LabeledFloatPointsSource.
func LabeledFloatPoints(r *RNG, n, dims, classes int, pClass0 float64, spread float32) []uint32 {
	return LabeledFloatPointsSource(r, n, dims, classes, pClass0, spread).Materialize()
}

// BurstyLabeledFloatPointsSource is LabeledFloatPointsSource with
// temporally clustered labels (training sets are commonly grouped by class
// or collection time): a two-state Markov chain with ~pClass0 stationary
// mass on class 0 and dwell times of a few hundred records. The label burst
// state rides inside the Source, so chunked and one-shot generation walk
// the same chain.
func BurstyLabeledFloatPointsSource(r *RNG, n, dims, classes int, pClass0 float64, spread float32) *Source {
	return NewSource(1+dims, n, r, func(r *RNG) func(rec []uint32) {
		means := Centers(r, classes, dims)
		label := 0
		if !r.Bernoulli(pClass0) {
			label = 1 + r.Intn(classes-1)
		}
		return func(rec []uint32) {
			rec[0] = uint32(label)
			for d := 0; d < dims; d++ {
				v := means[label][d] + (r.Float32()*2-1)*spread
				rec[1+d] = isa.Bits(v)
			}
			if label == 0 {
				if r.Bernoulli((1 - pClass0) / 256 * 2) {
					label = 1 + r.Intn(classes-1)
				}
			} else if r.Bernoulli(pClass0 / 256 * 2) {
				label = 0
			}
		}
	})
}
