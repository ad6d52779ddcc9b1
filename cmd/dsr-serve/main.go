// Command dsr-serve is the always-on DSR serving layer: it connects to
// a fleet of dsr-shard servers once, then accepts many client
// connections speaking the dsr-query line protocol ("s1 s2 | t1 t2"
// per line; "true", "false", or "error <kind>" per answer) and
// multiplexes them all onto that one coordinator.
//
//	dsr-serve -shards a:7000|b:7000,c:7001|d:7001 -listen :7200
//
// What the layer adds over running dsr-query per client:
//
//   - Cross-client batching: queries arriving while the engine is busy
//     (from any connection) share the round that starts when it frees,
//     up to -batch-max, so shard RPC fan-out is paid per batch, not per
//     query; a query on an idle server leaves at once.
//   - Result cache: a 2Q LRU over canonicalized query sets (-cache
//     entries; 0 or negative disables). Sound because the served graph
//     is immutable for the life of the fleet.
//   - Hedged requests (-hedge, replica groups required): batches that
//     outlast a latency quantile are re-sent by the transport to an
//     idle sibling replica, first answer wins.
//   - Admission control: -max-queued bounds total outstanding work,
//     -max-per-client keeps one connection from monopolizing it, and
//     rejected queries get "error overload: <scope>" immediately
//     instead of queueing forever.
//
// Flag misuse exits 2 before the fleet is dialed, and so does a
// -batch-max, -max-queued or -max-per-client below 1; a fleet whose
// shards disagree with each other exits 3 (same contract as dsr-query);
// other startup failures exit 1.
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests finish (bounded by -drain), then the process exits 0. A
// drain that runs out of budget closes the engine — which ends a round
// stuck on a silent shard — and exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsr/internal/cli"
	"dsr/internal/serve"
	"dsr/internal/shard"
)

func main() {
	app := cli.NewCoordinator("dsr-serve",
		"comma-separated shard addresses (shard i at position i), each optionally a 'a|b' replica group (required)",
		"time limit for dialing the fleet and fetching boundary summaries")
	var (
		listen = flag.String("listen", ":7200", "address to serve the query protocol on")
		drain  = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM")

		batchMax     = flag.Int("batch-max", 64, "the most queries one engine round carries; the rest wait for the next round")
		cacheEntries = flag.Int("cache", 4096, "result-cache capacity in entries; 0 or negative disables caching")
		maxQueued    = flag.Int("max-queued", 1024, "server-wide bound on queries admitted but not yet answered; beyond it clients get 'error overload: server'")
		maxPerClient = flag.Int("max-per-client", 256, "per-connection outstanding-query bound; beyond it that client gets 'error overload: client'")

		hedge           = flag.Bool("hedge", false, "hedge slow shard rounds onto idle sibling replicas (requires replica groups in -shards)")
		hedgePercentile = flag.Float64("hedge-percentile", 0.99, "latency quantile of a partition's primary RPCs that arms the hedge deadline")
		hedgeMin        = flag.Duration("hedge-min", time.Millisecond, "lower clamp on the hedge deadline")
		hedgeMax        = flag.Duration("hedge-max", 100*time.Millisecond, "upper clamp on the hedge deadline, and the deadline while latency samples warm up")
	)
	flag.Parse()
	app.Start()
	if *app.Shards == "" {
		fmt.Fprintln(os.Stderr, "dsr-serve: -shards is required: the serving layer fronts a running shard fleet")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	for _, b := range []struct {
		name string
		v    int
	}{{"-batch-max", *batchMax}, {"-max-queued", *maxQueued}, {"-max-per-client", *maxPerClient}} {
		if b.v < 1 {
			app.Usagef("%s must be >= 1, got %d", b.name, b.v)
		}
	}
	if *cacheEntries < 1 {
		*cacheEntries = -1 // serve.Options reads 0 as its default size
	}
	app.StartOps()
	eng := app.Connect(shard.HedgeOptions{
		Enabled:    *hedge,
		Percentile: *hedgePercentile,
		Min:        *hedgeMin,
		Max:        *hedgeMax,
	})

	srv := serve.New(eng, serve.Options{
		MaxBatch:     *batchMax,
		CacheEntries: *cacheEntries,
		MaxQueued:    *maxQueued,
		MaxPerClient: *maxPerClient,
		Metrics:      app.Reg,
		Log:          app.Log,
	})
	ln := app.Listen(*listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	servec := make(chan error, 1)
	go func() { servec <- srv.Serve(ln) }()

	code := cli.ExitOK
	select {
	case sig := <-sigc:
		app.Log.Infof("%s: draining (up to %v)", sig, *drain)
		dctx, dcancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(dctx); err != nil {
			app.Log.Warnf("drain incomplete: %v", err)
			code = cli.ExitFailure
		}
		dcancel()
		<-servec
	case err := <-servec:
		// The accept loop died without a shutdown — a real failure.
		app.Log.Errorf("serve: %v", err)
		code = cli.ExitFailure
	}
	eng.Close()
	app.Exit(code)
}
