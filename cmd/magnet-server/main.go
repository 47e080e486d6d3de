// Command magnet-server serves Magnet's faceted navigation interface over
// HTTP — the browser-window experience of the paper's Figure 1, on any of
// the built-in datasets, an N-Triples file, or a precompiled segment set.
//
// With -segments, the server skips dataset generation and indexing
// entirely: it maps the segment files produced by magnet-build and serves
// read-only from them, with open time independent of corpus size.
//
// Operational endpoints: /debug/metrics exposes the obs registry as flat
// JSON (counters, gauges, histograms over query evaluation, the blackboard
// analysts, index caches, facet summarization, runtime telemetry, and
// startup load times) — ?format=prom switches to the Prometheus text
// exposition with histogram exemplars; /debug/traces serves the flight
// recorder (head-sampled recents plus every trace over the slow
// threshold), with /debug/traces/{id} rendering one captured trace as
// JSON or (?format=text) a span tree; -pprof additionally mounts
// net/http/pprof under /debug/pprof/.
//
// Usage:
//
//	magnet-server [-addr :8080] [-dataset recipes|states|factbook|inbox|courses]
//	              [-file data.nt] [-segments dir] [-recipes N] [-baseline]
//	              [-log-level info] [-pprof] [-trace-slow 250ms] [-trace-sample 16]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"magnet/internal/analysts"
	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/obs"
	"magnet/internal/web"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := flag.String("dataset", "recipes", "built-in dataset: recipes, states, factbook, inbox, courses")
	file := flag.String("file", "", "serve an N-Triples file instead of a built-in dataset")
	segments := flag.String("segments", "", "serve a precompiled segment set (directory written by magnet-build) read-only")
	nRecipes := flag.Int("recipes", 2000, "recipe corpus size")
	useBaseline := flag.Bool("baseline", false, "use the Flamenco-like baseline advisor set")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "flight recorder: tail-sample every trace at least this slow")
	traceSample := flag.Int("trace-sample", 16, "flight recorder: head-sample 1 in N completed traces (1 = all)")
	flag.Parse()

	obs.Records.SetSlowThreshold(*traceSlow)
	obs.Records.SetSampleEvery(*traceSample)
	stopSampler := obs.StartRuntimeSampler(10 * time.Second)
	defer stopSampler()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "magnet-server: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	opts := core.Options{SoftEmptyResults: true}
	if *useBaseline {
		opts.Analysts = analysts.BaselineSet
	}

	var m *core.Magnet
	shownDataset := *dataset
	if *segments != "" {
		var err error
		m, err = core.OpenSegments(*segments, opts)
		if err != nil {
			logger.Error("open segments failed", "dir", *segments, "err", err)
			os.Exit(1)
		}
		shownDataset = m.Segments().Manifest.Dataset
	} else {
		spec := dataload.Spec{Dataset: *dataset, File: *file, Recipes: *nRecipes}
		g, allSubjects, err := dataload.Load(spec)
		if err != nil {
			logger.Error("load failed", "err", err)
			os.Exit(1)
		}
		opts.IndexAllSubjects = allSubjects
		m = core.Open(g, opts)
	}
	defer m.Close()

	mux := http.NewServeMux()
	mux.Handle("/", web.NewServer(m, web.WithLogger(logger)))
	mux.Handle("/debug/metrics", obs.Default.Handler())
	mux.Handle("/debug/traces", obs.Records.Handler())
	mux.Handle("/debug/traces/", obs.Records.Handler())
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// Generous write timeout so -pprof profile captures (30s default)
		// fit; page handlers finish in milliseconds.
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "dataset", shownDataset, "items", m.NumItems(), "segments", *segments, "pprof", *withPprof)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("shutdown incomplete", "err", err)
		}
	}
}
