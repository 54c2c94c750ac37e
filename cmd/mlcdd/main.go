// Command mlcdd serves MLCD as an HTTP service — the MLaaS front door:
//
//	mlcdd -addr :9090 -workers 4 -journal-dir mlcdd-journal &
//	curl -XPOST localhost:9090/v1/jobs -d '{"job":"resnet-cifar10","budget_usd":100}'
//	curl localhost:9090/v1/jobs/job-0001
//	curl -XDELETE localhost:9090/v1/jobs/job-0001
//	curl localhost:9090/v1/stats
//	curl localhost:9090/v1/health
//
// Submissions flow through a bounded queue into -workers concurrent
// deployment searches sharing one profiling cache. With -journal-dir
// set, every submission and probe is persisted to a segmented journal
// in that directory (rotating segments plus a snapshot the journal
// compacts every minute) and a restarted daemon resumes unfinished jobs
// without re-profiling. On SIGINT/SIGTERM the daemon drains in-flight
// HTTP requests, gives running searches -drain-timeout to finish, then
// cancels them (journaled jobs are recovered on the next start).
//
// With -shards N (N >= 2) the daemon runs the sharded control plane:
// tenants are routed across N independent scheduler shards by
// consistent hashing, each journaling to its own directory under
// -journal-dir:
//
//	mlcdd -addr :9090 -shards 4 -workers 2 -journal-dir /var/lib/mlcdd
//
// A background health loop (-health-every) probes each shard's journal;
// after three consecutive write failures a shard is marked
// degraded — new tenants are rerouted to healthy shards, existing
// tenants of the sick shard get 503 + Retry-After, and GET /v1/health
// reports the per-shard states. A degraded shard is readmitted as soon
// as its journal accepts writes again.
//
// With -fleet-prior (on by default) the scheduler aggregates every
// tenant's full-fidelity probes into per-(model family, instance type)
// transfer curves — the fleet meta-prior — and arms each new search's
// surrogate with them, so tenants submitting a model family the fleet
// has seen before converge in fewer probes. Sharded, the prior is
// rebuilt from the merged cache at every snapshot merge and published
// to all shards. GET /v1/fleet shows the current prior.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/mlcdapi"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
)

func main() {
	var (
		addr         = flag.String("addr", ":9090", "listen address")
		seed         = flag.Int64("seed", 1, "simulation seed")
		workers      = flag.Int("workers", 2, "concurrent deployment searches")
		queueSize    = flag.Int("queue", 64, "max queued submissions before 429")
		shards       = flag.Int("shards", 1, "scheduler shards; >= 2 enables the sharded control plane")
		journalDir   = flag.String("journal-dir", "", "segmented journal directory (per shard when sharded; empty = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for running searches on shutdown")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		chaosPlan    = flag.String("chaos-plan", "", "fault-injection plan: a builtin name (launch-storm, spot-interrupt, waitready-timeout, brownout) or a JSON plan file")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos provider's injection decisions")
		ckptEvery    = flag.Duration("checkpoint-every", 0, "checkpoint interval for training runs (0 = no checkpointing)")
		fidelity     = flag.String("fidelity", "", "comma-separated sub-sampling ladder for multi-fidelity probing, e.g. 0.25,0.5 (empty = full probes only)")
		healthEvery  = flag.Duration("health-every", 0, "shard journal health probe cadence when sharded (0 = 1s default, negative = disabled)")
		fleetPrior   = flag.Bool("fleet-prior", true, "learn a fleet meta-prior from all tenants' probes and warm-start every search's surrogate with it (inspect at GET /v1/fleet)")
	)
	flag.Parse()

	ladder, err := profiler.ParseLadder(*fidelity)
	if err != nil {
		log.Fatalf("mlcdd: %v", err)
	}

	// The registry is built first so the chaos provider (when enabled)
	// and the system publish on the same /metrics exposition.
	reg := obs.NewRegistry()
	var provider cloud.Provider = cloud.NewSimProvider(cloud.DefaultQuota, 2*time.Minute)
	if *chaosPlan != "" {
		plan, ok := chaos.PlanByName(*chaosPlan)
		if !ok {
			b, err := os.ReadFile(*chaosPlan)
			if err != nil {
				log.Fatalf("mlcdd: -chaos-plan %q is neither a builtin plan nor a readable file: %v", *chaosPlan, err)
			}
			if plan, err = chaos.ParsePlan(b); err != nil {
				log.Fatalf("mlcdd: %v", err)
			}
		}
		provider = chaos.Wrap(provider, plan, *chaosSeed, reg)
		fmt.Printf("mlcdd: chaos plan %q armed (seed %d)\n", plan.Name, *chaosSeed)
	}
	sys := mlcdsys.New(mlcdsys.Config{
		Seed:       *seed,
		Provider:   provider,
		Metrics:    reg,
		Fidelities: ladder,
		Resilience: mlcdsys.Resilience{CheckpointEvery: *ckptEvery},
	})
	server, err := mlcdapi.NewServerWithConfig(sys, mlcdapi.ServerConfig{
		Workers:     *workers,
		QueueSize:   *queueSize,
		Shards:      *shards,
		JournalDir:  *journalDir,
		HealthEvery: *healthEvery,
		FleetPrior:  *fleetPrior,
	})
	if err != nil {
		log.Fatalf("mlcdd: %v", err)
	}

	// The profiler gets its own mux on its own listener so /debug/pprof
	// is never reachable through the public API address.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("mlcdd: pprof server: %v", err)
			}
		}()
		fmt.Printf("mlcdd: pprof on %s/debug/pprof/\n", *pprofAddr)
	}

	hs := &http.Server{Addr: *addr, Handler: server}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	if *shards >= 2 {
		fmt.Printf("mlcdd: MLaaS deployment service on %s (%d shards × %d workers)\n", *addr, *shards, *workers)
	} else {
		fmt.Printf("mlcdd: MLaaS deployment service on %s (%d workers)\n", *addr, *workers)
	}
	if *journalDir != "" {
		fmt.Printf("mlcdd: segmented journals under %s\n", *journalDir)
	}
	if *fleetPrior {
		fmt.Println("mlcdd: fleet meta-prior enabled — searches start from cross-tenant transfer curves (GET /v1/fleet)")
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("mlcdd: %v", err)
	case sig := <-sigCh:
		fmt.Printf("mlcdd: %v — shutting down\n", sig)
	}

	// Stop accepting connections and drain in-flight requests first, so
	// no submission sneaks in after the scheduler stops.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil {
		log.Printf("mlcdd: http shutdown: %v", err)
	}
	schedCtx, cancelSched := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelSched()
	if err := server.Shutdown(schedCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mlcdd: scheduler shutdown: %v", err)
	}
	fmt.Println("mlcdd: bye")
}
