package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/mapreduce"
	"repro/internal/workloads"
)

// Cluster experiment geometry (Section IV-D). The study actually executes
// the full MapReduction — Map over every streamed record, per-node Reduce,
// tree Reduce — for ClusterNodes node shards, and then presents the
// measured per-processor rates through the paper's 5000-node example as an
// explicitly labeled extrapolation.
const (
	// ClusterNodes is the number of single-processor node shards whose Map
	// phases are simulated and whose datasets are streamed end to end.
	ClusterNodes = 4
	// ClusterStreamFactor multiplies the benchmark's default record count:
	// the cluster dataset is ClusterStreamFactor x the default per-processor
	// input, sharded across ClusterNodes nodes. 128 keeps the acceptance
	// floor (>= 100x) with a per-node Map of millions of words.
	ClusterStreamFactor = 128
)

// clusterBenchNames is the benchmark subset the cluster study runs: the
// cheapest and the three most expensive per-word kernels (Table IV order),
// covering integer-only and float32-heavy Reduce semantics.
var clusterBenchNames = []string{"count", "nbayes", "kmeans", "gda"}

// clusterPhases scales a measured per-processor rate through the network
// model for a cluster of nodes with procsPerNode processors per node, each
// processor mapping wordsPerProc input words.
func clusterPhases(nodes, procsPerNode int, rate float64, wordsPerProc int64, b *workloads.Benchmark, threads int) (cluster.Phases, error) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.ProcessorsPerNode = procsPerNode
	return cluster.Estimate(cfg, rate, wordsPerProc*int64(procsPerNode), b.K.StateWords, threads)
}

// clusterMap executes the Map phase over the full-scale dataset: every
// (processor shard, thread) Source is streamed through the golden
// per-record Fold on runJobs' worker pool, through bounded chunk buffers —
// memory stays constant in the record count. States land in disjoint slots,
// so the result is independent of the worker count. Cancelling ctx stops
// the Map between Sources and returns ctx.Err().
func clusterMap(ctx context.Context, b *workloads.Benchmark, shards, threads, records int, seed uint64) ([][][]uint32, error) {
	states := make([][][]uint32, shards)
	for si := range states {
		states[si] = make([][]uint32, threads)
	}
	err := runJobs(ctx, shards*threads, func(g int) error {
		si, t := g/threads, g%threads
		states[si][t] = b.GoldenSource(b.Source(ShardSeed(seed, si), t, records))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

// treeReduce merges node partial states pairwise in ceil(log2(n)) rounds —
// the shape of the cross-cluster network Reduce.
func treeReduce(job mapreduce.Job[[]uint32, []uint32], nodeStates [][]uint32) []uint32 {
	cur := nodeStates
	for len(cur) > 1 {
		next := make([][]uint32, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			merged := job.NewState()
			job.Merge(merged, cur[i])
			if i+1 < len(cur) {
				job.Merge(merged, cur[i+1])
			}
			next = append(next, merged)
		}
		cur = next
	}
	return cur[0]
}

// f32at reads state word i as the float32 it encodes.
func f32at(s []uint32, i int) float32 { return isa.F32(s[i]) }

// checkTreeVsFlat verifies the tree Reduce against the flat left-to-right
// reduction: integer-reduced words must match exactly; float32 words may
// differ by association order, so they are held to a tight relative bound.
func checkTreeVsFlat(b *workloads.Benchmark, tree, flat []uint32) error {
	for i := range flat {
		switch b.ReduceSpec[i] {
		case workloads.KindInt:
			if tree[i] != flat[i] {
				return fmt.Errorf("cluster %s: tree reduce int mismatch at word %d: %d != %d",
					b.Name(), i, tree[i], flat[i])
			}
		case workloads.KindF32:
			tv, fv := f32at(tree, i), f32at(flat, i)
			diff := tv - fv
			if diff < 0 {
				diff = -diff
			}
			mag := fv
			if mag < 0 {
				mag = -mag
			}
			if diff > 1e-3*(mag+1) {
				return fmt.Errorf("cluster %s: tree reduce f32 divergence at word %d: %g vs %g",
					b.Name(), i, tv, fv)
			}
		}
	}
	return nil
}

// ClusterStudy runs the cluster-scale MapReduce experiment: for each
// benchmark it (1) measures the per-processor Map rate from cycle-level
// simulations of every node shard at the default input size, (2) executes
// the Map phase over the full ClusterStreamFactor-scale dataset with
// clusterMap, spot-checking that chunked streaming matches a one-shot
// materialization on live data, (3) performs the per-node Reduce and the
// cross-node tree Reduce via mapreduce.Job, checking the tree against the
// flat reduction, and (4) converts the measured rates into the Section
// IV-D map / node-reduce / global-reduce breakdown through
// internal/cluster's network model. The figure reports the simulated
// nodes x procs cluster (default 4x1); the returned text extrapolates the
// same measured rates to the paper's 5000x32 example. The total streamed
// dataset is held constant, so a larger cluster maps a smaller shard per
// processor.
func ClusterStudy(ctx context.Context, p arch.Params, scale float64, seed uint64, nodes, procs int) (*Figure, string, error) {
	if seed == 0 {
		seed = Seed
	}
	if nodes <= 0 {
		nodes = ClusterNodes
	}
	if procs <= 0 {
		procs = 1
	}
	shards := nodes * procs
	f := &Figure{
		Name: fmt.Sprintf("Cluster-scale MapReduce: %d nodes x %d processors, dataset %dx the default per-processor input (Section IV-D)",
			nodes, procs, ClusterStreamFactor),
		Series: []string{"records (M)", "Mwords/s/proc", "map (ms)", "node-red (us)", "tree-red (us)", "total (ms)"},
	}
	paper := cluster.DefaultConfig()
	var text strings.Builder
	fmt.Fprintf(&text, "Extrapolation to the paper's example cluster (%d nodes x %d processors, same per-processor load, measured min rate):\n",
		paper.Nodes, paper.ProcessorsPerNode)

	threads := p.Threads()
	for _, name := range clusterBenchNames {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, "", err
		}
		simRecords := RecordsFor(b, scale)
		perThread := simRecords * ClusterStreamFactor / shards
		if perThread < 1 {
			perThread = 1
		}
		wordsPerProc := int64(threads) * int64(perThread) * int64(b.K.RecordWords)

		// (1) Measure: cycle-level simulation of one processor per node at
		// the default input size, on that node's first data shard. The rate
		// is simulated input words per simulated second — deterministic,
		// unlike wall-clock throughput.
		specs := make([]spec, nodes)
		for ni := range specs {
			specs[ni] = spec{ArchMillipede, b, p, simRecords, ShardSeed(seed, ni*procs)}
		}
		res, err := runSpecs(ctx, specs)
		if err != nil {
			return nil, "", err
		}
		var minRate float64
		for ni, r := range res {
			if rate := float64(r.Words) / (float64(r.Time) / 1e12); ni == 0 || rate < minRate {
				minRate = rate
			}
		}

		// (2) Map at cluster scale over bounded buffers.
		states, err := clusterMap(ctx, b, shards, threads, perThread, seed)
		if err != nil {
			return nil, "", err
		}

		// Spot-check on live data: thread 0 of node 0 recomputed from a
		// one-shot materialized stream must match the chunked fold.
		oneShot := b.GoldenThread(b.Source(ShardSeed(seed, 0), 0, perThread).Materialize(), perThread)
		for i, v := range oneShot {
			if states[0][0][i] != v {
				return nil, "", fmt.Errorf("cluster %s: chunked fold diverged from one-shot at word %d", name, i)
			}
		}

		// (3) Per-processor Reduce, a per-node merge of its processors'
		// states, then the cross-node tree Reduce. The single-processor
		// node skips the merge so its float association order — and thus
		// the historical 4x1 output — is preserved bit for bit.
		job := b.Job()
		shardStates := make([][]uint32, shards)
		for si := range shardStates {
			if shardStates[si], err = mapreduce.ReduceStates(job, states[si]); err != nil {
				return nil, "", err
			}
		}
		nodeStates := make([][]uint32, nodes)
		for ni := range nodeStates {
			if procs == 1 {
				nodeStates[ni] = shardStates[ni]
				continue
			}
			merged := job.NewState()
			for pi := 0; pi < procs; pi++ {
				job.Merge(merged, shardStates[ni*procs+pi])
			}
			nodeStates[ni] = merged
		}
		global := treeReduce(job, nodeStates)
		flat, err := mapreduce.ReduceStates(job, nodeStates)
		if err != nil {
			return nil, "", err
		}
		if err := checkTreeVsFlat(b, global, flat); err != nil {
			return nil, "", err
		}

		// (4) Time breakdown from the measured rates, at the simulated
		// cluster's geometry — exactly the data that was mapped above.
		ph, err := clusterPhases(nodes, procs, minRate, wordsPerProc, b, threads)
		if err != nil {
			return nil, "", err
		}
		f.Rows = append(f.Rows, Row{Bench: name, Values: map[string]float64{
			"records (M)":   float64(perThread) * float64(threads) * float64(shards) / 1e6,
			"Mwords/s/proc": minRate / 1e6,
			"map (ms)":      float64(ph.Map) / 1e9,
			"node-red (us)": float64(ph.NodeReduce) / 1e6,
			"tree-red (us)": float64(ph.GlobalReduce) / 1e6,
			"total (ms)":    float64(ph.Total()) / 1e9,
		}})

		// The paper-scale extrapolation keeps the per-processor load and
		// rate, widening the node to 32 processors and the tree to 5000
		// nodes (13 rounds).
		php, err := clusterPhases(paper.Nodes, paper.ProcessorsPerNode, minRate, wordsPerProc, b, threads)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&text, "  %-8s map %8.3f ms   node-reduce %8.1f us   global-reduce %8.1f us\n",
			name, float64(php.Map)/1e9, float64(php.NodeReduce)/1e6, float64(php.GlobalReduce)/1e6)
	}
	text.WriteString("Sanity (Section IV-D): Map dominates end-to-end time; the tree Reduce costs tens of\n" +
		"network round-trips and the per-node host Reduce stays in the hundreds-of-microseconds\n" +
		"band — communication support inside the PNM processors \"may not be worth it\".\n")
	return f, text.String(), nil
}
