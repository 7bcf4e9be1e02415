package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/workloads"
)

type paramDesc struct {
	Name        string   `json:"name"`
	Type        string   `json:"type"`
	Default     any      `json:"default"`
	Min         *float64 `json:"min"`
	Max         *float64 `json:"max"`
	Description string   `json:"description"`
}

type expEntry struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Params      []paramDesc `json:"params"`
}

func getExperiments(t *testing.T, url string) []expEntry {
	t.Helper()
	code, data := doJSON(t, "GET", url+"/v1/experiments", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/experiments: HTTP %d", code)
	}
	var out []expEntry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func descriptors(e expEntry) map[string]paramDesc {
	m := map[string]paramDesc{}
	for _, p := range e.Params {
		m[p.Name] = p
	}
	return m
}

// TestParamDescriptorShape: every experiment advertises the universal job
// fields, and the per-experiment options follow the registry's Uses lists.
func TestParamDescriptorShape(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	entries := getExperiments(t, ts.URL)
	byName := map[string]expEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}

	for _, e := range entries {
		ds := descriptors(e)
		for _, universal := range []string{"params", "seed", "timeout_ms",
			"stack_mode", "stack_bytes", "backing_bytes", "backing_latency"} {
			if _, ok := ds[universal]; !ok {
				t.Errorf("%s: missing universal descriptor %q", e.Name, universal)
			}
		}
		if seed, ok := ds["seed"]; ok {
			if seed.Default != any(float64(harness.Seed)) {
				t.Errorf("%s: seed default must be the canonical seed, got %+v", e.Name, seed)
			}
			if seed.Min == nil || *seed.Min != 0 || seed.Max != nil {
				t.Errorf("%s: seed descriptor must accept any seed, got %+v", e.Name, seed)
			}
		}
	}

	for exp, want := range map[string][]string{
		"cluster":   {"scale", "nodes", "processors"},
		"capacity":  {"scale"},
		"fig3":      {"scale"},
		"residency": {"scale", "host_bandwidth_gbs"},
		"timeline":  {"scale", "timeline_every"},
	} {
		e, ok := byName[exp]
		if !ok {
			t.Fatalf("experiment %q missing from listing", exp)
		}
		ds := descriptors(e)
		for _, name := range want {
			if _, ok := ds[name]; !ok {
				t.Errorf("%s: missing descriptor %q", exp, name)
			}
		}
	}
	if ds := descriptors(byName["table3"]); len(ds) != 7 {
		t.Errorf("table3 reads no options, want only the 7 universal descriptors, got %d", len(ds))
	}
}

// TestParamDescriptorsMatchDecoder cross-checks every advertised bound
// against the live job decoder: a value just below Min (or above Max) must
// be rejected, the advertised default must be accepted, and a field no
// descriptor names must be rejected. The simulation backend is a fake, so
// accepted jobs cost nothing.
func TestParamDescriptorsMatchDecoder(t *testing.T) {
	_, ts := newTestServer(t, server.Options{
		Runner: func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
			return harness.ExperimentResult{Text: "ok"}, nil
		},
	})
	post := func(body map[string]any) int {
		code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		return code
	}

	for _, e := range getExperiments(t, ts.URL) {
		for _, d := range e.Params {
			if d.Type == "object" {
				continue
			}
			if d.Type == "string" {
				// String options decode closed value sets: a made-up value
				// must be rejected, a documented one accepted.
				valid, ok := map[string]string{"stack_mode": "memory"}[d.Name]
				if !ok {
					t.Errorf("%s: string descriptor %q has no known-good probe value", e.Name, d.Name)
					continue
				}
				if code := post(map[string]any{"experiment": e.Name, d.Name: "no-such-value"}); code != http.StatusBadRequest {
					t.Errorf("%s: %s=no-such-value accepted with HTTP %d", e.Name, d.Name, code)
				}
				if code := post(map[string]any{"experiment": e.Name, d.Name: valid}); code != http.StatusOK && code != http.StatusAccepted {
					t.Errorf("%s: %s=%s rejected with HTTP %d", e.Name, d.Name, valid, code)
				}
				continue
			}
			if d.Min != nil {
				if code := post(map[string]any{"experiment": e.Name, d.Name: *d.Min - 1}); code != http.StatusBadRequest {
					t.Errorf("%s: %s=%g (below min) accepted with HTTP %d", e.Name, d.Name, *d.Min-1, code)
				}
			}
			if d.Max != nil {
				if code := post(map[string]any{"experiment": e.Name, d.Name: *d.Max + 1}); code != http.StatusBadRequest {
					t.Errorf("%s: %s=%g (above max) accepted with HTTP %d", e.Name, d.Name, *d.Max+1, code)
				}
			}
			if d.Default == nil {
				t.Errorf("%s: %s: numeric descriptor without a default", e.Name, d.Name)
				continue
			}
			code := post(map[string]any{"experiment": e.Name, d.Name: d.Default})
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Errorf("%s: %s=%v (the default) rejected with HTTP %d", e.Name, d.Name, d.Default, code)
			}
		}
		if code := post(map[string]any{"experiment": e.Name, "no_such_option": 1}); code != http.StatusBadRequest {
			t.Errorf("%s: undeclared field accepted with HTTP %d", e.Name, code)
		}
	}
}

// TestStackAndClusterDecoder pins the semantics of the new job fields: the
// stack knobs fold into the validated params block (so an incoherent
// combination is a 400, not a crash mid-simulation), the cluster geometry is
// bounded, and a different stack discipline is a different canonical job.
func TestStackAndClusterDecoder(t *testing.T) {
	_, ts := newTestServer(t, server.Options{
		Runner: func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
			return harness.ExperimentResult{Text: "ok"}, nil
		},
	})
	post := func(body map[string]any) (int, string) {
		code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		var st struct {
			ID string `json:"id"`
		}
		json.Unmarshal(data, &st)
		return code, st.ID
	}
	rowBytes := arch.Default().DRAM.RowBytes

	if code, _ := post(map[string]any{"experiment": "fig3", "stack_mode": "hwcache"}); code != http.StatusBadRequest {
		t.Errorf("hwcache without stack_bytes accepted with HTTP %d", code)
	}
	if code, _ := post(map[string]any{"experiment": "fig3", "stack_mode": "hwcache",
		"stack_bytes": 8 * rowBytes}); code != http.StatusAccepted && code != http.StatusOK {
		t.Errorf("hwcache with stack_bytes rejected with HTTP %d", code)
	}
	if code, _ := post(map[string]any{"experiment": "fig3", "stack_bytes": rowBytes + 1}); code != http.StatusBadRequest {
		t.Errorf("stack_bytes off the row grid accepted with HTTP %d", code)
	}
	if code, _ := post(map[string]any{"experiment": "cluster", "nodes": 65}); code != http.StatusBadRequest {
		t.Errorf("nodes=65 accepted with HTTP %d", code)
	}
	if code, _ := post(map[string]any{"experiment": "cluster", "nodes": 8, "processors": 2}); code != http.StatusAccepted && code != http.StatusOK {
		t.Errorf("nodes=8 processors=2 rejected with HTTP %d", code)
	}

	// A stack discipline changes what is simulated, so it must change the id.
	_, base := post(map[string]any{"experiment": "fig3"})
	_, mem := post(map[string]any{"experiment": "fig3", "stack_mode": "memory",
		"stack_bytes": 8 * rowBytes})
	_, hw := post(map[string]any{"experiment": "fig3", "stack_mode": "hwcache",
		"stack_bytes": 8 * rowBytes})
	if base == "" || mem == "" || hw == "" {
		t.Fatalf("missing job ids: %q %q %q", base, mem, hw)
	}
	if base == mem || mem == hw || base == hw {
		t.Errorf("stack disciplines share a job id: base=%s memory=%s hwcache=%s", base, mem, hw)
	}
}

// TestWorkloadsListing: GET /v1/workloads mirrors the benchmark registry,
// and the reduce word counts partition the state exactly.
func TestWorkloadsListing(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	code, data := doJSON(t, "GET", ts.URL+"/v1/workloads", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/workloads: HTTP %d", code)
	}
	var got []struct {
		Name            string `json:"name"`
		RecordWords     int    `json:"record_words"`
		StateWords      int    `json:"state_words"`
		DefaultRecords  int    `json:"default_records"`
		ReduceIntWords  int    `json:"reduce_int_words"`
		ReduceF32Words  int    `json:"reduce_f32_words"`
		ReduceKeepWords int    `json:"reduce_keep_words"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := workloads.All()
	if len(got) != len(want) {
		t.Fatalf("listing has %d workloads, registry has %d", len(got), len(want))
	}
	for i, b := range want {
		g := got[i]
		if g.Name != b.Name() || g.RecordWords != b.K.RecordWords ||
			g.StateWords != b.K.StateWords || g.DefaultRecords != b.DefaultRecords {
			t.Errorf("%s: geometry mismatch: %+v", b.Name(), g)
		}
		if g.ReduceIntWords+g.ReduceF32Words+g.ReduceKeepWords != b.K.StateWords {
			t.Errorf("%s: reduce kinds sum to %d, state has %d words", b.Name(),
				g.ReduceIntWords+g.ReduceF32Words+g.ReduceKeepWords, b.K.StateWords)
		}
	}
}
