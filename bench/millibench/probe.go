package main

import (
	"math"
	"slices"
	"time"
)

// The benchmark's time metrics are host-normalized: on a shared machine the
// speed of the host drifts by tens of percent over minutes, which would
// swamp any change to the program. Each run times a fixed probe before its
// first pass and after every pass and scales its time metrics by probeRef
// over the probes' median, so a metric reads as the time the run would have
// taken on a host where the probe takes probeRef. The probe is code of this
// benchmark only, never the simulator's, so a change to the program cannot
// move it.

// probeRef is the probe's time on the reference host: a quiet 2-vCPU
// 2.1 GHz x86-64 virtual machine.
const probeRef = 88 * time.Millisecond

// hostProbe times the probe once: the geometric mean of a 3M-step dependent
// pointer chase through 4 MB and a sort of 4 MB of pseudo-random keys.
// Together they stress the cache hierarchy and branch prediction the way
// the cycle loop does, the two resources a busy neighbour takes away. The
// inputs are rebuilt, untimed, on every call so they never stay live in the
// heap the benchmark measures.
func hostProbe() time.Duration {
	const n = 1 << 20
	chase := make([]uint32, n)
	keys := make([]uint32, n)
	for i := range chase {
		chase[i] = uint32(i)
	}
	x := uint64(12345)
	lcg := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 32
	}
	for i := n - 1; i > 0; i-- { // Sattolo's algorithm: one cycle through every slot
		j := int(lcg() % uint64(i))
		chase[i], chase[j] = chase[j], chase[i]
	}
	for i := range keys {
		keys[i] = uint32(lcg())
	}

	t := time.Now()
	p := uint32(0)
	for i := 0; i < 3<<20; i++ {
		p = chase[p]
	}
	tChase := time.Since(t)
	t = time.Now()
	slices.Sort(keys)
	tSort := time.Since(t)
	probeSink = p + keys[0] // keeps both loops live
	return time.Duration(math.Sqrt(float64(tChase) * float64(tSort)))
}

var probeSink uint32
