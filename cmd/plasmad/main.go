// Command plasmad serves coupled DSMC/PIC simulations over HTTP: jobs are
// submitted as JSON specs, queued by priority under admission control, run
// on a bounded worker pool (one simmpi.World per job), and memoized in a
// deterministic result cache. See internal/serve for the API and README.md
// for a curl walkthrough.
//
// With -data-dir the daemon is durable: the job table is journaled to a
// CRC32-framed write-ahead log and every result is persisted content-
// addressed by its canonical-spec SHA-256 (internal/store). After a crash
// — SIGKILL included — a restart with the same -data-dir replays the
// journal, serves completed results byte-identically from the verified
// cache, and requeues jobs that were admitted but unfinished. On
// persistent disk failure the daemon degrades to in-memory serving
// (visible on /healthz and /metrics) instead of going down.
//
// Shutdown is graceful: on SIGTERM/SIGINT the daemon stops admission
// (/healthz turns 503 so load balancers drain it), lets admitted jobs
// finish (up to -drain-timeout), then cancels whatever is still running
// cooperatively and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/serve"
	"github.com/plasma-hpc/dsmcpic/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 2, "concurrent-worlds cap (worker pool size)")
		queueCap     = flag.Int("queue", 16, "admission queue capacity (beyond it: 429)")
		cacheCap     = flag.Int("cache", 64, "retained jobs (results are evicted LRU beyond this)")
		maxRanks     = flag.Int("max-ranks", 16, "per-job simulated rank cap")
		maxSteps     = flag.Int("max-steps", 512, "per-job step cap")
		maxSimWk     = flag.Int("max-sim-workers", 8, "per-job cap on sim_workers (per-rank kernel worker goroutines; they change wall time only, not the result or its cache key; total goroutines scale as ranks × workers)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none); past it the job is cooperatively canceled")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs at shutdown")
		calibPath    = flag.String("calibration", "", "calibration profile JSON (from bench -calibrate) overriding built-in cost-model units")
		frameRing    = flag.Int("frame-ring", 256, "per-job in-memory snapshot-frame ring capacity (/jobs/{id}/frames)")

		// Cluster membership (cmd/plasmarouter fronting several daemons).
		idPrefix = flag.String("id-prefix", "", `prefix stamped on job IDs (e.g. "s0-"); the cluster router maps IDs back to shards by it`)

		// Persistence (internal/store).
		dataDir    = flag.String("data-dir", "", "directory for the job journal + result cache (empty = in-memory only)")
		sharedDir  = flag.String("shared-results", "", "cluster-shared results directory: publish results there and adopt peers' results from it (needs -data-dir)")
		persist    = flag.Bool("persist", true, "with -data-dir: journal jobs and persist results across restarts")
		noRequeue  = flag.Bool("no-requeue", false, "do not re-run jobs that were admitted but unfinished at the last shutdown/crash")
		journalMax = flag.Int64("journal-max-bytes", 1<<20, "journal size that triggers segment rotation (compaction)")

		// HTTP server hardening.
		httpWriteTimeout = flag.Duration("http-write-timeout", 10*time.Minute, "per-response write deadline; bounds /events streams, so keep it above the longest expected job")
	)
	flag.Parse()

	opts := serve.Options{
		Workers:       *workers,
		QueueCap:      *queueCap,
		CacheCap:      *cacheCap,
		MaxRanks:      *maxRanks,
		MaxSteps:      *maxSteps,
		MaxSimWorkers: *maxSimWk,
		JobTimeout:    *jobTimeout,
		NoRequeue:     *noRequeue,
		FrameRingCap:  *frameRing,
		IDPrefix:      *idPrefix,
	}
	if *calibPath != "" {
		prof, err := core.LoadCalibrationFile(*calibPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plasmad: %v\n", err)
			os.Exit(2)
		}
		opts.Calibration = prof
		log.Printf("loaded calibration profile %s (%d units)", *calibPath, len(prof.Units))
	}

	// Durable mode: mount the store and recover. A store that cannot be
	// opened (unwritable directory, corrupt beyond the journal's
	// self-healing) is a warning, not a fatal: the daemon falls back to
	// in-memory serving, matching the degraded-mode philosophy.
	var st *store.Store
	if *dataDir != "" && *persist {
		var rep *store.RecoveryReport
		var err error
		st, rep, err = store.Open(*dataDir, store.Options{
			CacheCap:        *cacheCap,
			JournalMaxBytes: *journalMax,
			SharedDir:       *sharedDir,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Printf("plasmad: persistence unavailable (%v); serving in-memory only", err)
		} else {
			opts.Store = st
			opts.Recovered = rep
			log.Printf("store %s: recovered %d jobs, %d results (%d quarantined, %d torn tail bytes)",
				*dataDir, len(rep.Jobs), len(rep.ResultKeys), len(rep.Quarantined), rep.DroppedTailBytes)
		}
	}

	srv := serve.NewServer(opts)
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Hardening against slow or hostile clients: a stalled request
		// line or body cannot pin a connection forever, idle keep-alives
		// are reaped, and headers are capped. The write timeout also
		// bounds NDJSON event streams — hence its own generous flag.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      *httpWriteTimeout,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	mode := "memory"
	if st != nil {
		mode = string(st.Mode())
	}
	log.Printf("plasmad listening on %s (workers=%d queue=%d store=%s)", *addr, *workers, *queueCap, mode)

	select {
	case sig := <-sigs:
		log.Printf("received %v: draining (timeout %s)", sig, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("listen: %v", err)
	}

	// Stop taking new jobs and run the admitted ones down, then close the
	// listener. Order matters: clients polling /jobs/{id} during the drain
	// must keep getting answers (and /healthz serves 503 to new traffic).
	srv.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	st.Close()
	log.Printf("drained; bye")
}
