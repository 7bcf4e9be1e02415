package harness

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/arch"
)

// TestExperimentsEncodeAtSmallestScale: at the smallest scale every
// registered experiment either returns an error or a result that encodes as
// JSON, so no NaN or Inf reaches a millid result body. The sla experiment
// (registered by its own package) is skipped: its rows are wall-clock
// measurements.
func TestExperimentsEncodeAtSmallestScale(t *testing.T) {
	for _, e := range Experiments() {
		if e.Name == "sla" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			res, err := RunExperiment(context.Background(), e.Name, arch.Default(), ExpOptions{Scale: 0.0001})
			if err != nil {
				t.Logf("returned an error: %v", err)
				return
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not encode: %v", err)
			}
		})
	}
}
