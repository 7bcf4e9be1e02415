// Command milliload is the built-in deterministic load generator for the
// millid simulation service, and the tool that renders its SLA report:
// sustained req/s, p50/p99 job latency (client-observed and from the
// serving nodes' jobs histograms), and per-tier cache hit rate, per offered
// load step — the response-time-vs-offered-load framing the die-stacked
// serving literature uses.
//
// The request stream is deterministic: a seeded xorshift PRNG picks each
// request from -distinct canonical variants of one experiment, so two runs
// with the same flags offer byte-identical request sequences (what the
// cluster does with them — hit, join, or simulate — is the thing being
// measured).
//
// Usage:
//
//	milliload [-target http://localhost:8177] [-experiment ablation]
//	          [-scale 0.02] [-distinct 4] [-rates 4,8,16] [-duration 5s]
//	          [-seed 1] [-metrics url1,url2,...]
//
// -target may be a worker or the cluster router; -metrics names the worker
// /metrics endpoints to aggregate for the histogram/cache columns (default:
// the target itself).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	target := flag.String("target", "http://localhost:8177", "base URL of a millid worker or router")
	experiment := flag.String("experiment", "ablation", "experiment to load the service with")
	scale := flag.Float64("scale", 0.02, "base input scale; variant i runs at scale*(i+1)")
	distinct := flag.Int("distinct", 4, "number of distinct request variants (cache working set)")
	rates := flag.String("rates", "4,8,16", "comma-separated offered loads (requests/second), one report row each")
	duration := flag.Duration("duration", 5*time.Second, "offered-load duration per step")
	seed := flag.Uint64("seed", 1, "request-sequence seed")
	metricsURLs := flag.String("metrics", "", "comma-separated worker /metrics base URLs to aggregate (default: target)")
	flag.Parse()

	var offered []float64
	for _, s := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || r <= 0 {
			log.Fatalf("milliload: bad -rates entry %q", s)
		}
		offered = append(offered, r)
	}
	scrape := []string{*target}
	if *metricsURLs != "" {
		scrape = nil
		for _, u := range strings.Split(*metricsURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				scrape = append(scrape, u)
			}
		}
	}

	gen := &loadgen{
		client:     &http.Client{Timeout: 30 * time.Second},
		target:     *target,
		experiment: *experiment,
		scale:      *scale,
		distinct:   *distinct,
		scrape:     scrape,
	}
	fig := &harness.Figure{
		Name: fmt.Sprintf("Serving SLA report: %s x%d variants against %s", *experiment, *distinct, *target),
		Series: []string{"offered_rps", "achieved_rps", "p50_ms", "p99_ms",
			"hist_p50_ms", "hist_p99_ms", "hit_rate", "shared_frac", "sims", "errors"},
	}
	for step, rate := range offered {
		row, err := gen.runStep(rate, *duration, datagen.NewRNG(*seed+uint64(step)))
		if err != nil {
			log.Fatalf("milliload: step %g req/s: %v", rate, err)
		}
		fig.Rows = append(fig.Rows, row)
	}
	fmt.Print(fig.Render())
	fmt.Println("p50/p99 are client-observed submit-to-done latencies; hist_* come from the")
	fmt.Println("worker jobs histograms (power-of-two-ms buckets, upper-edge estimate);")
	fmt.Println("hit_rate combines the local LRU and the shared store tier, shared_frac is")
	fmt.Println("the shared tier's share of all hits; sims and errors are step totals.")
	os.Exit(0)
}

type loadgen struct {
	client     *http.Client
	target     string
	experiment string
	scale      float64
	distinct   int
	scrape     []string
}

// body renders request variant i (deterministic canonical form).
func (g *loadgen) body(i int) []byte {
	return []byte(fmt.Sprintf(`{"experiment":%q,"scale":%g}`, g.experiment, g.scale*float64(i+1)))
}

// runStep offers `rate` req/s for d and reports one SLA row.
func (g *loadgen) runStep(rate float64, d time.Duration, rng *datagen.RNG) (harness.Row, error) {
	before, err := g.aggregate()
	if err != nil {
		return harness.Row{}, fmt.Errorf("scraping metrics: %w", err)
	}

	interval := time.Duration(float64(time.Second) / rate)
	deadline := time.Now().Add(d)
	var (
		mu        sync.Mutex
		latencies []float64
		errs      int
		wg        sync.WaitGroup
	)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	t0 := time.Now()
	n := 0
	for time.Now().Before(deadline) {
		variant := rng.Intn(g.distinct)
		wg.Add(1)
		n++
		go func() {
			defer wg.Done()
			lat, err := g.oneRequest(variant)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			latencies = append(latencies, lat)
		}()
		<-tick.C
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	after, err := g.aggregate()
	if err != nil {
		return harness.Row{}, fmt.Errorf("scraping metrics: %w", err)
	}
	delta := metrics.Diff(after, before)

	hits := delta.Value("server.cache_hits")
	shared := delta.Value("server.cache_shared_hits")
	misses := delta.Value("server.cache_misses")
	hitRate := 0.0
	if t := hits + shared + misses; t > 0 {
		hitRate = (hits + shared) / t
	}
	sharedFrac := 0.0
	if hits+shared > 0 {
		sharedFrac = shared / (hits + shared)
	}
	waitH, _ := delta.Get("server.job_wait_ms")
	runH, _ := delta.Get("server.job_run_ms")
	histLat := metrics.AddBuckets(waitH.Buckets, runH.Buckets)

	row := harness.Row{Bench: fmt.Sprintf("%grps", rate), Values: map[string]float64{
		"offered_rps":  rate,
		"achieved_rps": float64(len(latencies)) / elapsed,
		"p50_ms":       stats.Percentile(latencies, 0.50),
		"p99_ms":       stats.Percentile(latencies, 0.99),
		"hist_p50_ms":  metrics.Pow2BucketPercentile(histLat, 0.50),
		"hist_p99_ms":  metrics.Pow2BucketPercentile(histLat, 0.99),
		"hit_rate":     hitRate,
		"shared_frac":  sharedFrac,
		"sims":         delta.Value("server.sims_run"),
		"errors":       float64(errs),
	}}
	return row, nil
}

// oneRequest submits one job and follows it to a terminal state, returning
// the submit-to-done latency in milliseconds.
func (g *loadgen) oneRequest(variant int) (float64, error) {
	t0 := time.Now()
	resp, err := g.client.Post(g.target+"/v1/jobs", "application/json", bytes.NewReader(g.body(variant)))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	var sb struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &sb); err != nil {
		return 0, err
	}
	for sb.Status != "done" && sb.Status != "failed" {
		time.Sleep(5 * time.Millisecond)
		resp, err := g.client.Get(g.target + "/v1/jobs/" + sb.ID)
		if err != nil {
			return 0, err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET /v1/jobs/%s: %s", sb.ID, resp.Status)
		}
		if err := json.Unmarshal(data, &sb); err != nil {
			return 0, err
		}
	}
	if sb.Status != "done" {
		return 0, fmt.Errorf("job %s failed", sb.ID)
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), nil
}

// aggregate scrapes every metrics endpoint and sums the samples (counters
// and histograms add across nodes; gauges add too, which is the right
// fan-in for depths and entry counts).
func (g *loadgen) aggregate() (metrics.Snapshot, error) {
	var out metrics.Snapshot
	for _, base := range g.scrape {
		resp, err := g.client.Get(base + "/metrics")
		if err != nil {
			return out, err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			return out, err
		}
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
		}
		var samples []struct {
			Name    string   `json:"name"`
			Kind    string   `json:"kind"`
			Value   float64  `json:"value"`
			Buckets []uint64 `json:"buckets"`
		}
		if err := json.Unmarshal(data, &samples); err != nil {
			return out, err
		}
		var node metrics.Snapshot
		for _, s := range samples {
			sm := metrics.Sample{Name: s.Name, Kind: metrics.Gauge, Value: s.Value, Buckets: s.Buckets}
			switch s.Kind {
			case "counter":
				sm.Kind = metrics.Counter
			case "histogram":
				sm.Kind = metrics.Histogram
			}
			node.Put(sm)
		}
		out = metrics.Sum(out, node)
	}
	return out, nil
}
