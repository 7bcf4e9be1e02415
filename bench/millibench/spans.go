package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one simulation run or one serving job share a run id.
type span struct {
	name       string
	run        string
	tid        int // client goroutine (serve) or 0
	parent     int // index of the enclosing span, or -1
	start, end time.Duration
}

// recorder keeps spans in memory for the traced pass and writes them out
// at exit. A nil recorder records nothing, so the untraced passes share the
// traced pass's code at no cost.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// open starts a span and returns its id for close and for child spans.
func (r *recorder) open(name string, parent int, run string, tid int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, run: run, tid: tid, parent: parent, start: now})
	return len(r.spans) - 1
}

// close ends the span id.
func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover (children of one span
// run on its goroutine, so they never overlap each other).
func (r *recorder) selfSeconds() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.name] += self[i].Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds), which Perfetto and chrome://tracing load.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "run": s.run},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
