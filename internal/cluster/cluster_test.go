package cluster_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestValidate(t *testing.T) {
	if err := cluster.DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cluster.DefaultConfig()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := cluster.Estimate(cluster.DefaultConfig(), 0, 1, 1, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestPaperSection4DOrdering reproduces the paper's cost-structure
// argument with a measured per-processor rate: for tens of millions of
// records per node, Map >> GlobalReduce > NodeReduce, with the node Reduce
// in the sub-millisecond range and the global Reduce in the milliseconds —
// so PNM-internal communication support "may not be worth it".
func TestPaperSection4DOrdering(t *testing.T) {
	p := arch.Default()
	b := workloads.CountBench()
	r, _, err := harness.Run(harness.ArchMillipede, b, p, 1024, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(r.Words) / (float64(r.Time) / 1e12) // words/s per processor

	c := cluster.DefaultConfig()
	// A full die-stacked memory of input per node (Table III: 4 GB = 1 G
	// words) — the Spark-like resident dataset of Section IV-E.
	const wordsPerNode = 1_000_000_000
	ph, err := cluster.Estimate(c, rate, wordsPerNode, b.K.StateWords, p.Threads())
	if err != nil {
		t.Fatal(err)
	}
	if !(ph.Map > ph.GlobalReduce && ph.GlobalReduce > ph.NodeReduce) {
		t.Errorf("cost ordering broken: map=%v global=%v node=%v", ph.Map, ph.GlobalReduce, ph.NodeReduce)
	}
	if ph.NodeReduce > sim.Millisecond {
		t.Errorf("node reduce %v, paper says hundreds of microseconds", ph.NodeReduce)
	}
	if ph.GlobalReduce > 100*sim.Millisecond {
		t.Errorf("global reduce %v, paper says tens of milliseconds", ph.GlobalReduce)
	}
	if ph.Total() <= ph.Map {
		t.Error("total not cumulative")
	}
	frac := float64(ph.NodeReduce+ph.GlobalReduce) / float64(ph.Total())
	if frac > 0.05 {
		t.Errorf("reduce phases are %.1f%% of total; paper argues they are negligible", frac*100)
	}
}

func TestSingleNodeNoGlobalReduce(t *testing.T) {
	c := cluster.DefaultConfig()
	c.Nodes = 1
	ph, err := cluster.Estimate(c, 1e9, 1_000_000, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if ph.GlobalReduce != 0 {
		t.Errorf("single node global reduce = %v", ph.GlobalReduce)
	}
}

func TestScalingInNodes(t *testing.T) {
	small, _ := cluster.Estimate(cluster.Config{Nodes: 8, ProcessorsPerNode: 32, HostHz: 3.6e9,
		NetLatency: 10 * sim.Microsecond, NetBandwidthBps: 10e9}, 1e9, 1_000_000, 64, 128)
	big, _ := cluster.Estimate(cluster.Config{Nodes: 4096, ProcessorsPerNode: 32, HostHz: 3.6e9,
		NetLatency: 10 * sim.Microsecond, NetBandwidthBps: 10e9}, 1e9, 1_000_000, 64, 128)
	if big.GlobalReduce <= small.GlobalReduce {
		t.Error("global reduce not growing with node count")
	}
	// Logarithmic: 4096 nodes is 12 rounds vs 3 — a 4x ratio, not 512x.
	if big.GlobalReduce > small.GlobalReduce*8 {
		t.Errorf("global reduce not logarithmic: %v vs %v", big.GlobalReduce, small.GlobalReduce)
	}
}
