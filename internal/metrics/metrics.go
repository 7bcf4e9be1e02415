// Package metrics is the simulator-wide observability layer: a registry of
// named counters, gauges, and histograms that every component model (DRAM,
// memory controller, caches, the prefetch buffer, corelets, the SIMT SM,
// the DFS controller, the energy model) publishes through, plus a
// cycle-domain timeline sampler for the paper's dynamic claims (prefetch
// occupancy driving flow control, the DFS clock trajectory).
//
// The design keeps the single-run hot path untouched: components increment
// their plain (atomic-free) stats fields exactly as before, and register
// closures that *read* those fields. Nothing is evaluated until Snapshot is
// taken — typically once, after the run — so enabling metrics cannot
// perturb simulated timing, and the BENCH determinism fields stay
// bit-identical with the registry attached.
//
// Snapshots render deterministically: samples are sorted by name, and both
// the text and JSON forms are byte-stable across identical runs.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a metric.
type Kind uint8

const (
	// Counter is a monotonically increasing event count.
	Counter Kind = iota
	// Gauge is an instantaneous or derived value (occupancy, a rate, Hz).
	Gauge
	// Histogram is a bucketized distribution (e.g. queue-latency buckets).
	Histogram
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	}
	return "?"
}

// Sample is one named value in a Snapshot.
type Sample struct {
	Name    string
	Kind    Kind
	Value   float64  // counters and gauges
	Buckets []uint64 // histograms only
}

type probe struct {
	name    string
	kind    Kind
	scalar  func() float64
	buckets func() []uint64
}

// Registry collects named metrics from registered sources. Registration
// happens once at model construction; the getter closures are evaluated
// only when Snapshot is called.
type Registry struct {
	probes []probe
	names  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) add(p probe) {
	if r.names[p.name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", p.name))
	}
	r.names[p.name] = true
	r.probes = append(r.probes, p)
}

// Counter registers a monotonically increasing event count.
func (r *Registry) Counter(name string, get func() uint64) {
	r.add(probe{name: name, kind: Counter, scalar: func() float64 { return float64(get()) }})
}

// Gauge registers an instantaneous or derived value.
func (r *Registry) Gauge(name string, get func() float64) {
	r.add(probe{name: name, kind: Gauge, scalar: get})
}

// Histogram registers a bucketized distribution.
func (r *Registry) Histogram(name string, get func() []uint64) {
	r.add(probe{name: name, kind: Histogram, buckets: get})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.probes) }

// Snapshot evaluates every registered getter and returns the values sorted
// by name.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Samples: make([]Sample, 0, len(r.probes))}
	for _, p := range r.probes {
		sm := Sample{Name: p.name, Kind: p.kind}
		if p.kind == Histogram {
			sm.Buckets = append([]uint64(nil), p.buckets()...)
		} else {
			sm.Value = p.scalar()
		}
		s.Samples = append(s.Samples, sm)
	}
	s.sort()
	return s
}

// Snapshot is a point-in-time set of metric samples, sorted by name.
type Snapshot struct {
	Samples []Sample
}

func (s *Snapshot) sort() {
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].Name < s.Samples[j].Name })
}

// Get returns the sample with the given name.
func (s Snapshot) Get(name string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Value returns the scalar value of the named counter or gauge (0 if
// absent — snapshots are assembled from fixed registries, so a missing name
// is a caller typo, not a runtime condition worth an error path).
func (s Snapshot) Value(name string) float64 {
	sm, _ := s.Get(name)
	return sm.Value
}

// Put inserts sm, replacing any existing sample of the same name and
// keeping the snapshot sorted. It is how run-level values (simulated time,
// energy breakdown) join the component snapshot.
func (s *Snapshot) Put(sm Sample) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= sm.Name })
	if i < len(s.Samples) && s.Samples[i].Name == sm.Name {
		s.Samples[i] = sm
		return
	}
	s.Samples = append(s.Samples, Sample{})
	copy(s.Samples[i+1:], s.Samples[i:])
	s.Samples[i] = sm
}

// Diff returns after minus before: counters and histograms are subtracted
// (names present only in after pass through unchanged), gauges keep after's
// value. Names present only in before are dropped.
func Diff(after, before Snapshot) Snapshot {
	var out Snapshot
	for _, a := range after.Samples {
		b, ok := before.Get(a.Name)
		if !ok || a.Kind == Gauge {
			out.Samples = append(out.Samples, a)
			continue
		}
		d := Sample{Name: a.Name, Kind: a.Kind}
		switch a.Kind {
		case Counter:
			d.Value = a.Value - b.Value
		case Histogram:
			d.Buckets = append([]uint64(nil), a.Buckets...)
			for i := range d.Buckets {
				if i < len(b.Buckets) {
					d.Buckets[i] -= b.Buckets[i]
				}
			}
		}
		out.Samples = append(out.Samples, d)
	}
	return out
}

// Sum returns a plus b: samples of the same name add (counters and gauges
// by value, histograms bucket by bucket) and names present on one side pass
// through. It is how per-node snapshots fan in to one cluster view. Neither
// input is modified.
func Sum(a, b Snapshot) Snapshot {
	out := Snapshot{Samples: append([]Sample(nil), a.Samples...)}
	for _, sm := range b.Samples {
		if prev, ok := out.Get(sm.Name); ok {
			if sm.Kind == Histogram {
				sm.Buckets = AddBuckets(prev.Buckets, sm.Buckets)
			} else {
				sm.Value += prev.Value
			}
		}
		out.Put(sm)
	}
	return out
}

// AddBuckets returns the bucket-by-bucket sum of two histograms; the
// shorter one counts as zero past its end.
func AddBuckets(a, b []uint64) []uint64 {
	out := make([]uint64, max(len(a), len(b)))
	for i, v := range a {
		out[i] += v
	}
	for i, v := range b {
		out[i] += v
	}
	return out
}

// Pow2BucketPercentile estimates the q-quantile (0 < q <= 1) of a
// power-of-two-millisecond latency histogram laid out like the jobs pool
// and memory controller histograms: bucket 0 counts observations under
// 1 ms, bucket i counts [2^(i-1), 2^i) ms, and the last bucket is the
// overflow. The estimate is the containing bucket's upper edge in
// milliseconds — a deliberate over-estimate, which is the conservative
// side for an SLA report — so any nonempty histogram yields >= 1. An empty
// histogram returns 0.
func Pow2BucketPercentile(buckets []uint64, q float64) float64 {
	var total uint64
	for _, b := range buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the quantile observation (nearest-rank,
	// rounded up — the conservative side, like the bucket upper edge).
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, b := range buckets {
		seen += b
		if seen >= rank {
			return float64(uint64(1) << i)
		}
	}
	return float64(uint64(1) << (len(buckets) - 1))
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Render returns the stable sorted text form: one "name kind value" line
// per sample. Identical runs produce byte-identical output.
func (s Snapshot) Render() string {
	var b strings.Builder
	for _, sm := range s.Samples {
		if sm.Kind == Histogram {
			fmt.Fprintf(&b, "%-44s %-9s %v\n", sm.Name, sm.Kind, sm.Buckets)
			continue
		}
		fmt.Fprintf(&b, "%-44s %-9s %s\n", sm.Name, sm.Kind, formatValue(sm.Value))
	}
	return b.String()
}

// jsonSample is the stable JSON wire form of one sample.
type jsonSample struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   *float64 `json:"value,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// JSON returns the snapshot as an indented, name-sorted JSON array.
func (s Snapshot) JSON() ([]byte, error) {
	out := make([]jsonSample, 0, len(s.Samples))
	for _, sm := range s.Samples {
		js := jsonSample{Name: sm.Name, Kind: sm.Kind.String()}
		if sm.Kind == Histogram {
			js.Buckets = sm.Buckets
		} else {
			v := sm.Value
			js.Value = &v
		}
		out = append(out, js)
	}
	return json.MarshalIndent(out, "", "  ")
}
