package server

// registerMetrics publishes the service-level counters through the
// simulator-wide metrics registry, following the same lazy-closure
// discipline as the component models: nothing is evaluated until a
// /metrics request snapshots the registry.
func (s *Server) registerMetrics() {
	r := s.reg
	r.Gauge("server.workers", func() float64 { return float64(s.pool.Workers()) })
	r.Gauge("server.queue_capacity", func() float64 { return float64(s.pool.Capacity()) })
	r.Gauge("server.queue_depth", func() float64 { return float64(s.pool.Depth()) })
	r.Gauge("server.jobs_running", func() float64 { return float64(s.pool.Running()) })
	r.Counter("server.jobs_submitted", s.pool.Submitted)
	r.Counter("server.jobs_rejected", s.pool.Rejected)
	r.Counter("server.jobs_done", s.done.Load)
	r.Counter("server.jobs_failed", s.failed.Load)
	r.Counter("server.jobs_panicked", s.pool.Panicked)
	r.Counter("server.sims_run", s.sims.Load)
	// The result cache is the finished job records: cache_entries counts
	// them and cache_evictions the ones dropped at the bound.
	r.Counter("server.cache_hits", s.hits.Load)
	r.Counter("server.cache_shared_hits", s.sharedHits.Load)
	r.Counter("server.cache_misses", s.misses.Load)
	r.Counter("server.cache_evictions", s.evictions.Load)
	r.Gauge("server.cache_entries", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.finished.Len())
	})
	r.Gauge("server.cache_hit_rate", func() float64 {
		hits := float64(s.hits.Load() + s.sharedHits.Load())
		if total := hits + float64(s.misses.Load()); total > 0 {
			return hits / total
		}
		return 0
	})
	r.Gauge("server.draining", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	// Latency histograms share the memory controller's bucket layout:
	// bucket i counts [2^(i-1), 2^i) milliseconds, bucket 0 is <1 ms.
	r.Histogram("server.job_wait_ms", s.pool.WaitHistogram)
	r.Histogram("server.job_run_ms", s.pool.RunHistogram)
}
