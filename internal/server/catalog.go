// Catalog endpoints: the self-describing half of the millid API. GET
// /v1/experiments lists every registered experiment with machine-readable
// parameter descriptors derived from the same validation canonicalize runs
// on POST /v1/jobs — a value a descriptor allows is a value the job decoder
// accepts, and vice versa. GET /v1/workloads lists the benchmark kernels a
// request's scale multiplies, with their dataset and reduce geometry.
package server

import (
	"net/http"
	"sync"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// paramDesc describes one POST /v1/jobs body field an experiment consumes.
// Bounds mirror canonicalize exactly: a request is rejected iff it violates
// a descriptor (Min/Max inclusive; absent means unbounded on that side).
type paramDesc struct {
	Name        string   `json:"name"`
	Type        string   `json:"type"` // "number", "integer", or "object"
	Default     any      `json:"default,omitempty"`
	Min         *float64 `json:"min,omitempty"`
	Max         *float64 `json:"max,omitempty"`
	Description string   `json:"description"`
}

func bound(v float64) *float64 { return &v }

// paramsFor derives an experiment's parameter descriptors: first the options
// its run function actually reads (ExperimentInfo.Uses), then the fields
// every job accepts — architecture overrides, the pinned seed, and the two
// operational knobs that never change what is simulated.
func paramsFor(uses []string) []paramDesc {
	var ps []paramDesc
	for _, u := range uses {
		switch u {
		case "scale":
			ps = append(ps, paramDesc{Name: "scale", Type: "number", Default: 1.0, Min: bound(0),
				Description: "input-size multiplier over each benchmark's default record count (0 = default 1)"})
		case "host_bandwidth_gbs":
			ps = append(ps, paramDesc{Name: "host_bandwidth_gbs", Type: "number", Default: 16.0, Min: bound(0),
				Description: "host-link bandwidth in GB/s assumed by the residency model (0 = default 16)"})
		case "timeline_every":
			ps = append(ps, paramDesc{Name: "timeline_every", Type: "integer",
				Default: float64(harness.DefaultTimelineEvery), Min: bound(0),
				Description: "timeline sampling period in compute cycles (0 = default)"})
		case "nodes":
			ps = append(ps, paramDesc{Name: "nodes", Type: "integer",
				Default: float64(harness.ClusterNodes), Min: bound(0), Max: bound(64),
				Description: "nodes in the simulated cluster (0 = default)"})
		case "processors":
			ps = append(ps, paramDesc{Name: "processors", Type: "integer",
				Default: 1.0, Min: bound(0), Max: bound(32),
				Description: "processors per cluster node (0 = default 1)"})
		}
	}
	return append(ps,
		paramDesc{Name: "params", Type: "object",
			Description: "architecture parameter overrides, decoded over the node's base configuration and validated like the milliexp flags"},
		paramDesc{Name: "stack_mode", Type: "string", Default: "",
			Description: "die-stack capacity discipline: \"memory\", \"hwcache\", or \"memcache\"; folds into params.StackMode (\"\" = all-resident pass-through)"},
		paramDesc{Name: "stack_bytes", Type: "integer", Default: 0.0, Min: bound(0),
			Description: "die-stack capacity in bytes, a multiple of the DRAM row size; folds into params.StackBytes (0 = holds the whole dataset)"},
		paramDesc{Name: "backing_bytes", Type: "integer", Default: 0.0, Min: bound(0),
			Description: "planar backing store capacity in bytes; folds into params.BackingBytes (0 = sized to the dataset)"},
		paramDesc{Name: "backing_latency", Type: "integer", Default: 0.0, Min: bound(0),
			Description: "planar backing store latency in channel cycles; folds into params.BackingLatency (0 = default)"},
		paramDesc{Name: "seed", Type: "integer", Default: float64(harness.Seed), Min: bound(0),
			Description: "dataset seed threaded through every run the experiment performs (0 = canonical)"},
		paramDesc{Name: "timeout_ms", Type: "integer", Default: 0.0, Min: bound(0),
			Description: "service-side execution bound; operational only, not part of the job id (0 = server default)"},
	)
}

// experimentsBody and workloadsBody are the GET /v1/experiments and GET
// /v1/workloads replies, encoded on first use. Both lists are fixed once
// every init has registered its experiment (harness.Register), so each
// process encodes them once and serves the stored bytes.
var (
	experimentsBody = sync.OnceValues(func() ([]byte, error) { return encodeKept(experimentList()) })
	workloadsBody   = sync.OnceValues(func() ([]byte, error) { return encodeKept(workloadList()) })
)

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeStored(w, experimentsBody)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeStored(w, workloadsBody)
}

// writeStored sends a body encoded once, or 500 if it failed to encode.
func writeStored(w http.ResponseWriter, body func() ([]byte, error)) {
	data, err := body()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, http.StatusOK, data)
}

// expBody is one GET /v1/experiments entry. Name and Description predate
// the params descriptors and must keep their shape: old clients decode
// exactly those two fields.
type expBody struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Params      []paramDesc `json:"params"`
}

// experimentList is the GET /v1/experiments reply: every registered
// experiment with its parameter descriptors.
func experimentList() []expBody {
	var out []expBody
	for _, e := range harness.Experiments() {
		out = append(out, expBody{e.Name, e.Description, paramsFor(e.Uses)})
	}
	return out
}

// workloadBody is one GET /v1/workloads entry: the dataset and reduce
// geometry of a benchmark kernel. The reduce word counts partition
// state_words by merge semantics (integer add / float32 add / per-thread
// only).
type workloadBody struct {
	Name            string `json:"name"`
	RecordWords     int    `json:"record_words"`
	StateWords      int    `json:"state_words"`
	DefaultRecords  int    `json:"default_records"`
	ReduceIntWords  int    `json:"reduce_int_words"`
	ReduceF32Words  int    `json:"reduce_f32_words"`
	ReduceKeepWords int    `json:"reduce_keep_words"`
}

// workloadList is the GET /v1/workloads reply: every benchmark kernel.
func workloadList() []workloadBody {
	var out []workloadBody
	for _, b := range workloads.All() {
		wb := workloadBody{
			Name:           b.Name(),
			RecordWords:    b.K.RecordWords,
			StateWords:     b.K.StateWords,
			DefaultRecords: b.DefaultRecords,
		}
		for _, k := range b.ReduceSpec {
			switch k {
			case workloads.KindInt:
				wb.ReduceIntWords++
			case workloads.KindF32:
				wb.ReduceF32Words++
			case workloads.KindKeep:
				wb.ReduceKeepWords++
			}
		}
		out = append(out, wb)
	}
	return out
}
