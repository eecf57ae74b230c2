// Command fingersd serves graph-mining simulations over HTTP: a
// long-lived daemon that loads and preprocesses each dataset once,
// shares the immutable graph (CSR + hybrid storage view) across
// requests, and runs fingers.JobSpec jobs through a bounded admission
// queue with per-request deadlines.
//
// Usage:
//
//	fingersd -addr :8080 -concurrency 4 -queue 32 -json runs.jsonl
//	curl -s localhost:8080/v1/graphs
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"arch":"fingers","graph":"Mi","pattern":"tc","pes":8}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -sN localhost:8080/v1/jobs/job-000001/stream > run.jsonl
//
// The stream endpoint emits fingers.run/v1 JSONL — periodic partial
// records while the job runs, then the final record — which fingerstat
// ingests directly.
//
// SIGINT/SIGTERM drains gracefully: admission stops (503), running and
// queued jobs get -drain-timeout to finish, anything still in flight is
// then interrupted so its partial record is flushed to -json, and the
// process exits 0.
//
// With -journal-dir the daemon is crash-safe: every job lifecycle
// transition is appended (fsync'd) to a write-ahead journal before it
// is acknowledged, and a restart against the same directory replays the
// journal — finished jobs come back as queryable history, jobs that
// were queued or running when the process died are re-enqueued in their
// original order and run to completion. Transient failures retry with
// exponential backoff under -max-attempts; -client-rate,
// -max-queued-per-client, and -shed-latency arm per-client admission
// control.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fingers/internal/journal"
	"fingers/internal/service"
	"fingers/internal/telemetry"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 2, "jobs simulated at once")
	queueDepth := flag.Int("queue", 16, "admission queue depth (full queue returns 429)")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline applied to jobs that set none (0 = unbounded)")
	maxTimeout := flag.Duration("max-timeout", 0, "clamp on per-job deadlines (0 = no clamp)")
	maxShards := flag.Int("max-shards", 0, "clamp on per-job sim_shards requests (0 = no clamp)")
	jsonOut := flag.String("json", "", "append one JSONL run record per finished job here")
	runTag := flag.String("run-tag", "", "default run tag stamped into records (a job's own tag wins)")
	preload := flag.String("preload", "", "comma-separated graphs to load at startup (\"all\" = every registered graph)")
	streamInterval := flag.Duration("stream-interval", 500*time.Millisecond, "cadence of partial records on /stream")
	progressEvery := flag.Int64("progress-every", 65536, "scheduler steps between live progress snapshots")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight jobs on shutdown before they are interrupted")
	journalDir := flag.String("journal-dir", "", "write-ahead journal directory; restarts replay it and resume unfinished jobs")
	maxAttempts := flag.Int("max-attempts", 3, "server-wide per-job attempt budget for transient failures (1 disables retries)")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "base backoff before a retry (doubles per attempt, capped by -retry-max)")
	retryMax := flag.Duration("retry-max", 5*time.Second, "cap on the retry backoff")
	clientRate := flag.Float64("client-rate", 0, "per-client submissions/second admitted (0 = unlimited)")
	clientBurst := flag.Int("client-burst", 0, "per-client token-bucket burst (0 = max(rate, 1))")
	maxQueuedPerClient := flag.Int("max-queued-per-client", 0, "bound on one client's queued jobs (0 = unbounded)")
	shedLatency := flag.Duration("shed-latency", 0, "queue-latency threshold to shed low-priority jobs (normal sheds at 2x; 0 = never)")
	inject := flag.String("inject", "", "fault-injection schedule for chaos testing, e.g. simulate:panic@2,journal:error@5")
	flag.Parse()

	reg := service.NewRegistry()
	if *preload != "" {
		for _, n := range strings.Split(*preload, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if err := reg.Preload(n); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(os.Stderr, "fingersd: preloaded %s\n", *preload)
	}

	var runLog *telemetry.RunLog
	if *jsonOut != "" {
		var err error
		runLog, err = telemetry.OpenRunLog(*jsonOut)
		if err != nil {
			return fail(err)
		}
		defer runLog.Close()
	}
	meta := telemetry.HostMeta()
	meta.Source = "fingersd"
	meta.RunTag = *runTag

	var injector *service.FaultInjector
	if *inject != "" {
		points, err := service.ParseFaultSpec(*inject)
		if err != nil {
			return fail(err)
		}
		injector = service.NewFaultInjector(points...)
		fmt.Fprintf(os.Stderr, "fingersd: fault injection armed: %s\n", *inject)
	}

	var wal *journal.Journal
	if *journalDir != "" {
		opt := journal.Options{}
		if injector != nil {
			opt.BeforeAppend = injector.JournalHook()
		}
		var err error
		wal, err = journal.Open(*journalDir, opt)
		if err != nil {
			return fail(err)
		}
		defer wal.Close()
		if skips := wal.Skips(); len(skips) > 0 {
			fmt.Fprintf(os.Stderr, "fingersd: journal replay skipped %d damaged lines\n", len(skips))
		}
	}

	mgr := service.NewManager(reg, service.Config{
		Concurrency:        *concurrency,
		QueueDepth:         *queueDepth,
		DefaultTimeout:     *defaultTimeout,
		MaxTimeout:         *maxTimeout,
		MaxShards:          *maxShards,
		ProgressEvery:      *progressEvery,
		Meta:               meta,
		Log:                runLog,
		Journal:            wal,
		Retry:              service.RetryPolicy{MaxAttempts: *maxAttempts, BaseDelay: *retryBase, MaxDelay: *retryMax},
		ClientRate:         *clientRate,
		ClientBurst:        *clientBurst,
		MaxQueuedPerClient: *maxQueuedPerClient,
		ShedLatency:        *shedLatency,
		FaultInjector:      injector,
	})
	if rs := mgr.Recovery(); rs.Enabled && (rs.Requeued > 0 || rs.RestoredTerminal > 0) {
		fmt.Fprintf(os.Stderr, "fingersd: journal replay: %d finished jobs restored, %d requeued (%d interrupted mid-run)\n",
			rs.RestoredTerminal, rs.Requeued, rs.Interrupted)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: service.NewServer(mgr, *streamInterval).Handler(),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "fingersd: listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener failed before any signal (bad address, port in use).
		mgr.Drain(0)
		return fail(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "fingersd: draining")
	// Stop admission and flush in-flight jobs first, so every record —
	// partial or complete — is written before connections close.
	mgr.Drain(*drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	fmt.Fprintln(os.Stderr, "fingersd: drained, exiting")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fingersd:", err)
	return 1
}
