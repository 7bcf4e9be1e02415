package workloads

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/kernels"
)

// TestStreamingConstantMemory is the constant-memory guarantee, enforced: it
// folds a dataset ~800x the default per-thread input (about 13 MB per
// thread, 52 MB across threads if materialized) through bounded chunk
// buffers under a GOMEMLIMIT ceiling far below the materialized size, and
// asserts the measured heap growth stays under 8 MB — then checks the folded
// result is complete (every record landed in a count bin).
func TestStreamingConstantMemory(t *testing.T) {
	b, err := ByName("count")
	if err != nil {
		t.Fatal(err)
	}
	const threads = 4
	records := b.DefaultRecords * 800

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	prev := debug.SetMemoryLimit(int64(base) + 32<<20)
	defer debug.SetMemoryLimit(prev)

	var peak uint64
	var total uint64
	rw := b.K.RecordWords
	job := b.Job()
	buf := make([]uint32, GoldenChunkWords)
	for th := 0; th < threads; th++ {
		st := job.NewState()
		src := b.Source(77, th, records)
		for chunk := 0; ; chunk++ {
			n := src.Next(buf)
			if n == 0 {
				break
			}
			for i := 0; i < n; i += rw {
				b.Fold(st, buf[i:i+rw])
			}
			if chunk%64 == 0 {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
		for bin := 0; bin < 2*kernels.CountBins; bin++ {
			total += uint64(st[bin])
		}
	}

	if total != uint64(threads)*uint64(records) {
		t.Errorf("folded %d records, want %d: the stream lost or duplicated data", total, threads*records)
	}
	if grown := int64(peak) - int64(base); grown > 8<<20 {
		t.Errorf("heap grew %d bytes while streaming (limit 8 MiB): generation is not constant-memory", grown)
	}
}

// TestGoldenStreamedAllocBounded: a stream shorter than one chunk is folded
// through a buffer of its own length, not a GoldenChunkWords buffer. Folding
// count's reference for 128 threads x 40 records (a small millid job)
// allocated about 2.1 MB when every thread took a 16 KB buffer; right-sized
// buffers bring it to about 80 KB.
func TestGoldenStreamedAllocBounded(t *testing.T) {
	goldenMemo.Lock()
	goldenMemo.lru = nil
	goldenMemo.Unlock()
	const threads, records, limit = 128, 40, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	CountBench().GoldenStatesStreamed(threads, records, 0x5EED)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("golden fold of %d threads x %d records allocated %d bytes, limit %d", threads, records, got, limit)
	}
}
