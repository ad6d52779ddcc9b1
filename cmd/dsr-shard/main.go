// Command dsr-shard runs one DSR shard server: it loads the graph,
// partitions it into the deployment's shard count, extracts and
// condenses its own partition, sweeps its key components for the
// boundary summary, and serves local-search RPCs over TCP.
//
//	dsr-shard -graph edges.txt -shards 3 -id 0 -listen 127.0.0.1:7000 -partitioner locality
//
// Every shard of a deployment must load the same graph file with the
// same -shards count and the same -partitioner spec: every partitioner
// is deterministic, so all shards agree on vertex placement without
// any coordination traffic. The coordinator (dsr-query, or
// dsr.Connect) is graph-free — it takes only the shard addresses.
// After the handshake each shard ships its boundary summary (boundary
// vertices, first-boundary skeleton edges, cross-partition edges),
// which the coordinator stitches into the global boundary graph; it
// verifies the shards against each other via the handshake's vertex
// count, graph fingerprint, and partitioning digest, refuses a fleet
// whose shards disagree, and refuses a replica whose summary digest
// differs from the summary it stitched for that partition. A bad flag value — an unknown -partitioner, a
// -shards below 1, an -id outside [0, shards) — exits 2 before anything
// is loaded; what only the work can discover exits 1 (README.md, "Exit
// codes").
//
// A shard built from -graph logs one boot line, "shard i/k
// (<partitioner>-partitioned): … components: …; ms: load L, partition
// P, extract E, build B": the build's phases in milliseconds (build is
// shard.New, condensation and summary sweep), so a fleet's setup time
// splits per process without a profiler. It is for operators: tests and
// harnesses wait for the later "serving on <addr>" line instead.
//
// Snapshots: with -snapshot-dir, a freshly built shard persists its
// forward-CSR subgraph and SCC condensation (snapshot format 4) to
// <dir>/part<id>-of-<shards>.dsrsnap via a temp-file+rename, and the
// next boot loads that file instead of rebuilding — skipping even the
// edge-list read and Tarjan, so -graph becomes optional; the boundary
// summary is re-derived from the loaded state. A snapshot that is
// missing, corrupt, version-skewed (a file an older build wrote), or
// for the wrong partition falls back to the rebuild path (with a logged
// warning), never to a wrong answer; -snapshot-verify forces a rebuild
// from -graph and byte-compares it against the stored snapshot, exiting
// non-zero on any disagreement.
//
// Replication: running several dsr-shard processes with the same -id
// makes them interchangeable replicas of that partition — point the
// coordinator at all of them with a '|' group ("a:7000|b:7000" in
// dsr-query's -shards). Replicas need no awareness of each other; the
// optional -replica flag only labels this process's logs. On SIGTERM
// or SIGINT the server drains gracefully: new connections are refused,
// in-flight task batches finish and are answered, then the process
// exits 0 — so a rolling restart never drops an accepted batch, and a
// replicated coordinator fails the severed connections over to a
// sibling replica.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dsr/internal/cli"
	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
	"dsr/internal/snapshot"
)

func main() {
	app := cli.New("dsr-shard")
	var (
		graphPath   = flag.String("graph", "", "edge-list file: one 'u v' pair per line (required unless a snapshot is loaded via -snapshot-dir)")
		numShards   = flag.Int("shards", 1, "total shard count of the deployment")
		shardID     = flag.Int("id", 0, "this shard's index in [0, shards)")
		replica     = flag.Int("replica", 0, "replica label for this partition's server (logs only; replicas are interchangeable)")
		listen      = flag.String("listen", "127.0.0.1:7000", "TCP address to serve on")
		partitioner = flag.String("partitioner", "hash", "partitioning strategy: hash, range, or locality[:seed=N,rounds=N,balance=F,refine=N]; must match the coordinator's")
		snapDir     = flag.String("snapshot-dir", "", "directory of persisted per-partition snapshots: boot loads this partition's snapshot instead of rebuilding from -graph, and a rebuild writes one back")
		snapVerify  = flag.Bool("snapshot-verify", false, "force a rebuild from -graph and byte-compare it against the stored snapshot; any disagreement is fatal")
	)
	flag.Parse()
	if *graphPath == "" && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "dsr-shard: -graph is required (or -snapshot-dir to boot from a snapshot)")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	if *snapVerify && (*graphPath == "" || *snapDir == "") {
		fmt.Fprintln(os.Stderr, "dsr-shard: -snapshot-verify needs both -graph (to rebuild) and -snapshot-dir (to compare against)")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	if *numShards < 1 {
		app.Usagef("-shards must be >= 1, got %d", *numShards)
	}
	if *shardID < 0 || *shardID >= *numShards {
		app.Usagef("-id %d outside [0, %d)", *shardID, *numShards)
	}
	strat, err := locality.ParseSpec(*partitioner)
	if err != nil {
		app.Usagef("-partitioner: %v", err)
	}
	app.Start("partition", *shardID, "replica", *replica)
	// Register for drain signals before any real work: a SIGTERM that
	// lands during the build (or between listen and the drain goroutine
	// below) parks in the channel instead of killing the process with
	// the default action, and is honored the moment serving starts.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)

	opsAddr := app.StartOps()
	var (
		snapLoads        = app.Reg.Counter("dsr_snapshot_loads_total")
		snapLoadFailures = app.Reg.Counter("dsr_snapshot_load_failures_total")
		snapWrites       = app.Reg.Counter("dsr_snapshot_writes_total")
		snapBytes        = app.Reg.Gauge("dsr_snapshot_bytes")
	)

	var snapPath string
	if *snapDir != "" {
		snapPath = filepath.Join(*snapDir, snapshot.Filename(*shardID, *numShards))
	}

	// Fast path: load this partition's subgraph and condensation from
	// its snapshot — no edge-list read, no partitioning, no Tarjan; the
	// summary is one sweep of the entries. The header's shard ID/count
	// are checked here; its graph fingerprint and partitioning digest
	// become this shard's handshake identity, so the coordinator refuses
	// a snapshot of a foreign graph like any replica that disagrees with
	// the fleet (shard.MismatchError).
	var sh *shard.Shard
	var numVertices int
	var graphSum, partSum uint64
	if snapPath != "" && !*snapVerify {
		sn, err := snapshot.ReadFile(snapPath)
		if err == nil {
			err = sn.Expect(*shardID, *numShards)
		}
		switch {
		case err == nil:
			sh = shard.FromSnapshot(sn)
			numVertices = sn.TotalVertices
			graphSum, partSum = sn.GraphFingerprint, sn.PartitioningDigest
			snapLoads.Inc()
			snapBytes.Set(int64(sn.Size))
			app.Log.Infof("loaded snapshot %s (%d bytes, graph file not read): %d of %d vertices, %d entries, %d exits, components: %v",
				snapPath, sn.Size, sh.NumVertices(), numVertices, len(sn.Sub.Entries), len(sn.Sub.Exits), sh.Regions())
		case errors.Is(err, fs.ErrNotExist):
			app.Log.Infof("no snapshot at %s: building from -graph", snapPath)
		default:
			snapLoadFailures.Inc()
			app.Log.Warnf("snapshot unusable, rebuilding from -graph: %v", err)
		}
		if sh == nil && *graphPath == "" {
			app.Fatalf("snapshot at %s unusable and no -graph to rebuild from", snapPath)
		}
	}

	if sh == nil {
		// phase returns the milliseconds since its previous call.
		mark := time.Now()
		phase := func() int64 {
			prev := mark
			mark = time.Now()
			return mark.Sub(prev).Milliseconds()
		}
		g, err := graph.LoadEdgeListFile(*graphPath)
		if err != nil {
			app.Fatalf("load graph: %v", err)
		}
		loadMS := phase()
		pt, err := strat.Partition(g, *numShards)
		if err != nil {
			app.Fatalf("partition (%s): %v", strat.Name(), err)
		}
		partitionMS := phase()
		// ExtractOne materializes only this shard's partition: startup memory
		// scales with the shard's share of the graph, not all k partitions.
		sub := partition.ExtractOne(g, pt, *shardID)
		extractMS := phase()
		sh = shard.New(*shardID, sub)
		buildMS := phase()
		numVertices, graphSum, partSum = g.NumVertices(), g.Fingerprint(), pt.Digest()
		app.Log.Infof("shard %d/%d (%s-partitioned): %d of %d vertices, %d entries, %d exits, components: %v; ms: load %d, partition %d, extract %d, build %d",
			*shardID, *numShards, strat.Name(), sh.NumVertices(), numVertices,
			len(sub.Entries), len(sub.Exits), sh.Regions(), loadMS, partitionMS, extractMS, buildMS)

		if snapPath != "" {
			sn := sh.Snapshot(*numShards, numVertices, graphSum, partSum)
			if *snapVerify {
				verifySnapshot(app, snapPath, sn)
			}
			size, err := snapshot.WriteFile(snapPath, sn)
			if err != nil {
				// Serving matters more than persisting: log and carry on.
				app.Log.Warnf("snapshot write failed (next boot rebuilds): %v", err)
			} else {
				snapWrites.Inc()
				snapBytes.Set(int64(size))
				app.Log.Infof("wrote snapshot %s (%d bytes)", snapPath, size)
			}
		}
	}

	ln := app.Listen(*listen)
	srv := shard.NewServer(sh, *numShards, numVertices, graphSum, partSum)
	srv.Instrument(app.Reg, app.Log)
	// Announce the ops address in the handshake so the coordinator's
	// /fleet view can scrape this replica without extra configuration.
	srv.AnnounceMetrics(opsAddr)

	// Graceful drain on SIGTERM/SIGINT: finish in-flight batches, refuse
	// new connections, then exit 0 (Serve returns nil once draining).
	go func() {
		sig := <-sigc
		app.Log.Infof("received %v: draining (answering in-flight batches, refusing new connections)", sig)
		srv.Shutdown()
		app.Log.Infof("drained")
	}()

	// ErrClosed means a drain began before Serve was entered (a SIGTERM
	// racing startup) — that is a clean shutdown, not a serving failure.
	if err := srv.Serve(ln); err != nil && !errors.Is(err, shard.ErrClosed) {
		app.Fatalf("serve: %v", err)
	}
	// Make sure the drain fully finished before exiting (Serve can
	// return the moment the listener closes, while a batch is still
	// being answered).
	srv.Shutdown()
	app.Log.Infof("exiting")
	app.Exit(cli.ExitOK)
}

// verifySnapshot byte-compares the freshly rebuilt state against the
// stored snapshot. Encoding is deterministic, so equal state means
// equal bytes; any difference — a stale snapshot after the graph file
// changed, a partitioner drift, bit rot the checksum would also catch
// — is fatal, because an operator running -snapshot-verify wants the
// discrepancy surfaced, not papered over. A missing snapshot passes
// (the caller writes the first one).
func verifySnapshot(app *cli.App, snapPath string, sn *snapshot.Snapshot) {
	stored, err := os.ReadFile(snapPath)
	if errors.Is(err, fs.ErrNotExist) {
		app.Log.Infof("snapshot-verify: no snapshot at %s yet, writing one", snapPath)
		return
	}
	if err != nil {
		app.Fatalf("snapshot-verify: read %s: %v", snapPath, err)
	}
	fresh, err := snapshot.Encode(sn)
	if err != nil {
		app.Fatalf("snapshot-verify: encode rebuilt state: %v", err)
	}
	if !bytes.Equal(stored, fresh) {
		if _, derr := snapshot.Decode(stored); derr != nil {
			app.Fatalf("snapshot-verify: %s does not match the rebuilt state (%d vs %d bytes) and fails to decode: %v",
				snapPath, len(stored), len(fresh), derr)
		}
		app.Fatalf("snapshot-verify: %s does not match the state rebuilt from -graph (%d vs %d bytes): stale snapshot or drifted graph/partitioner",
			snapPath, len(stored), len(fresh))
	}
	app.Log.Infof("snapshot-verify: %s matches the rebuilt state (%d bytes)", snapPath, len(fresh))
}
