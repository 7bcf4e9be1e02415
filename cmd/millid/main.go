// Command millid serves the experiment registry over HTTP: a job-queued,
// result-cached simulation service that scales from one daemon to a
// cluster. Every experiment milliexp can run is reachable as a
// POST /v1/jobs request; deterministic simulation makes the SHA-256 of the
// canonical request both the job id and the result-cache key, so repeated
// or concurrent identical requests simulate once and share byte-identical
// result bodies.
//
// The daemon runs one of three roles:
//
//	-role=worker (default)  the simulation node: job queue + worker pool +
//	                        local LRU result cache; -store attaches the
//	                        shared result tier so results computed anywhere
//	                        in the cluster are hits here too
//	-role=store             the shared result tier: a memcache-style
//	                        in-memory store speaking GET/PUT/LEASE
//	-role=router            the front tier: consistent-hash routing of jobs
//	                        across -nodes, with health checks and bounded
//	                        retry — identical requests always land on the
//	                        same worker
//
// Single-daemon quick start:
//
//	millid &
//	curl localhost:8177/v1/experiments
//	curl -d '{"experiment":"ablation","scale":0.25}' localhost:8177/v1/jobs
//	curl localhost:8177/v1/jobs/<id>          # poll until "done"
//	curl localhost:8177/v1/jobs/<id>/result
//	curl localhost:8177/metrics               # queue depth, cache hit rate
//
// Cluster quick start (see also `make cluster-demo`):
//
//	millid -role=store  -addr :8178 &
//	millid -addr :8181 -store http://localhost:8178 &
//	millid -addr :8182 -store http://localhost:8178 &
//	millid -role=router -addr :8177 -nodes http://localhost:8181,http://localhost:8182 &
//	milliload -target http://localhost:8177 -rates 4,8 -duration 3s
//
// On SIGTERM/SIGINT a worker drains gracefully: intake stops (POST returns
// 503, /healthz degrades — which also tells the router to stop routing
// here), queued and in-flight jobs run until done or until -drain-timeout
// cancels their contexts, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // debug mux, served only when -pprof is set
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/rescache"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	role := flag.String("role", "worker", "daemon role: worker, store, or router")
	addr := flag.String("addr", ":8177", "listen address")
	// Worker flags.
	workers := flag.Int("workers", 0, "worker: simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "worker: job queue capacity (0 = 4x workers)")
	cacheEntries := flag.Int("cache", 256, "worker: local result cache entries (LRU)")
	storeURL := flag.String("store", "", "worker: base URL of the shared result store (millid -role=store); empty = local cache only")
	timeout := flag.Duration("timeout", 15*time.Minute, "worker: default per-job timeout (0 = none; requests may set timeout_ms)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "worker: how long to wait for in-flight jobs on shutdown before cancelling them")
	// Store flags.
	storeEntries := flag.Int("store-entries", 4096, "store: result entries (LRU)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "store: fill-lease lifetime")
	// Router flags.
	nodes := flag.String("nodes", "", "router: comma-separated worker base URLs")
	replicas := flag.Int("replicas", 64, "router: consistent-hash virtual replicas per node")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "router: node health-check period")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = disabled")
	flag.Parse()

	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux, which nothing else in millid uses; expose it only on
		// the operator-chosen address, separate from the API listener.
		go func() {
			log.Printf("millid: pprof debug server on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("millid: pprof server: %v", err)
			}
		}()
	}

	switch *role {
	case "worker":
		runWorker(*addr, *workers, *queue, *cacheEntries, *storeURL, *timeout, *drainTimeout)
	case "store":
		runStore(*addr, *storeEntries, *leaseTTL)
	case "router":
		runRouter(*addr, *nodes, *replicas, *healthEvery)
	default:
		log.Fatalf("millid: unknown -role %q (worker, store, or router)", *role)
	}
}

// serve runs hs until a signal arrives, then calls shutdown (which must
// stop the listener, e.g. via hs.Shutdown).
func serve(hs *http.Server, what string, shutdown func(ctx context.Context)) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		<-ctx.Done()
		shutdown(context.Background())
	}()

	log.Printf("millid: serving %s on %s", what, hs.Addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("millid: %v", err)
	}
	<-finished
}

func runWorker(addr string, workers, queue, cacheEntries int, storeURL string, timeout, drainTimeout time.Duration) {
	o := server.Options{
		Workers:        workers,
		QueueCapacity:  queue,
		CacheEntries:   cacheEntries,
		DefaultTimeout: timeout,
	}
	if storeURL != "" {
		o.Shared = rescache.NewHTTPTier(storeURL, nil)
		log.Printf("millid: shared result tier at %s", storeURL)
	}
	srv := server.New(arch.Default(), o)
	hs := &http.Server{Addr: addr, Handler: srv}
	serve(hs, "the experiment registry", func(ctx context.Context) {
		log.Printf("millid: signal received; draining (intake closed, waiting up to %s for jobs)", drainTimeout)
		dctx, cancel := context.WithTimeout(ctx, drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			log.Printf("millid: drain timed out; cancelled remaining jobs: %v", err)
		} else {
			log.Printf("millid: drained cleanly")
		}
		sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
		defer scancel()
		hs.Shutdown(sctx)
	})
	log.Print(srv.Metrics().Render())
}

func runStore(addr string, entries int, leaseTTL time.Duration) {
	st := rescache.NewStore(entries, leaseTTL)
	hs := &http.Server{Addr: addr, Handler: st.Handler()}
	serve(hs, "the shared result store", func(ctx context.Context) {
		log.Printf("millid: signal received; store shutting down")
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	})
	log.Print(st.Registry().Snapshot().Render())
}

func runRouter(addr, nodeList string, replicas int, healthEvery time.Duration) {
	var nodes []string
	for _, n := range strings.Split(nodeList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		log.Fatal("millid: -role=router requires -nodes")
	}
	rt := router.New(router.Options{
		Nodes:          nodes,
		Replicas:       replicas,
		Base:           arch.Default(),
		HealthInterval: healthEvery,
	})
	defer rt.Close()
	hs := &http.Server{Addr: addr, Handler: rt}
	log.Printf("millid: routing across %d nodes: %s", len(nodes), strings.Join(nodes, ", "))
	serve(hs, "the cluster router", func(ctx context.Context) {
		log.Printf("millid: signal received; router shutting down")
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	})
	log.Print(rt.Metrics().Render())
}
